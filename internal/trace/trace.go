// Package trace defines the measurement records the evaluation collects:
// per-epoch phase timings and aggregate I/O rates, per-run summaries,
// and CSV export for offline model fitting (cmd/iomodel).
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"
)

// Mode identifies the I/O strategy of an epoch or run.
type Mode string

// The two I/O modes under evaluation.
const (
	Sync  Mode = "sync"
	Async Mode = "async"
)

// Record is one epoch's measurements.
type Record struct {
	Epoch int
	Mode  Mode
	Ranks int
	// Bytes is the aggregate data moved by the I/O phase across ranks.
	Bytes int64
	// IOTime is the blocking time of the I/O phase observed by the
	// application (max across ranks): full transfer time for sync,
	// staging/transactional time for async.
	IOTime time.Duration
	// CompTime is the computation phase duration.
	CompTime time.Duration
	// DrainTime is how long the epoch additionally waited for background
	// I/O that did not fit under the computation (async only).
	DrainTime time.Duration
}

// Rate returns the aggregate observed I/O rate in bytes/second — the
// "aggregate bandwidth" of the paper's plots: data volume over the
// blocking I/O time.
func (r Record) Rate() float64 {
	s := r.IOTime.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(r.Bytes) / s
}

// EpochTime returns the end-to-end epoch duration.
func (r Record) EpochTime() time.Duration {
	return r.IOTime + r.CompTime + r.DrainTime
}

// RunResult summarizes one application run.
type RunResult struct {
	System   string
	Workload string
	Mode     Mode
	Ranks    int
	Nodes    int
	Records  []Record
	// InitTime and TermTime bracket the epochs (Eq. 1's t_init and
	// t_term: connector setup, file create/open, drain and close).
	InitTime time.Duration
	TermTime time.Duration
}

// TotalTime is Eq. 1: init + Σ epochs + term.
func (rr *RunResult) TotalTime() time.Duration {
	total := rr.InitTime + rr.TermTime
	for _, r := range rr.Records {
		total += r.EpochTime()
	}
	return total
}

// PeakRate returns the maximum per-epoch aggregate rate — the paper
// reports "peak measured aggregate bandwidth for all I/O phases".
func (rr *RunResult) PeakRate() float64 {
	var peak float64
	for _, r := range rr.Records {
		if rate := r.Rate(); rate > peak {
			peak = rate
		}
	}
	return peak
}

// Rates returns every epoch's aggregate rate.
func (rr *RunResult) Rates() []float64 {
	out := make([]float64, len(rr.Records))
	for i, r := range rr.Records {
		out[i] = r.Rate()
	}
	return out
}

// csvHeader is the exported column set.
var csvHeader = []string{
	"epoch", "mode", "ranks", "bytes", "io_seconds", "comp_seconds",
	"drain_seconds", "rate_bytes_per_sec",
}

// WriteCSV exports records for offline analysis.
func WriteCSV(w io.Writer, records []Record) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, r := range records {
		row := []string{
			strconv.Itoa(r.Epoch),
			string(r.Mode),
			strconv.Itoa(r.Ranks),
			strconv.FormatInt(r.Bytes, 10),
			strconv.FormatFloat(r.IOTime.Seconds(), 'g', -1, 64),
			strconv.FormatFloat(r.CompTime.Seconds(), 'g', -1, 64),
			strconv.FormatFloat(r.DrainTime.Seconds(), 'g', -1, 64),
			strconv.FormatFloat(r.Rate(), 'g', -1, 64),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses records previously written by WriteCSV.
func ReadCSV(r io.Reader) ([]Record, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("trace: empty CSV")
	}
	if len(rows[0]) != len(csvHeader) || rows[0][0] != csvHeader[0] {
		return nil, fmt.Errorf("trace: unexpected header %v", rows[0])
	}
	var out []Record
	for i, row := range rows[1:] {
		rec, err := parseRow(row)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d: %w", i+1, err)
		}
		out = append(out, rec)
	}
	return out, nil
}

func parseRow(row []string) (Record, error) {
	var r Record
	if len(row) != len(csvHeader) {
		return r, fmt.Errorf("want %d columns, got %d", len(csvHeader), len(row))
	}
	var err error
	if r.Epoch, err = strconv.Atoi(row[0]); err != nil {
		return r, err
	}
	r.Mode = Mode(row[1])
	if r.Mode != Sync && r.Mode != Async {
		return r, fmt.Errorf("unknown mode %q", row[1])
	}
	if r.Ranks, err = strconv.Atoi(row[2]); err != nil {
		return r, err
	}
	if r.Bytes, err = strconv.ParseInt(row[3], 10, 64); err != nil {
		return r, err
	}
	if r.Bytes < 0 {
		return r, fmt.Errorf("negative byte count %d", r.Bytes)
	}
	secs := make([]float64, 3)
	for i := 0; i < 3; i++ {
		if secs[i], err = strconv.ParseFloat(row[4+i], 64); err != nil {
			return r, err
		}
		if math.IsNaN(secs[i]) || math.IsInf(secs[i], 0) {
			return r, fmt.Errorf("column %s: non-finite duration %v", csvHeader[4+i], secs[i])
		}
		if secs[i] < 0 {
			return r, fmt.Errorf("column %s: negative duration %v", csvHeader[4+i], secs[i])
		}
		// Beyond ~292 years the nanosecond conversion overflows int64 and
		// the duration would come back negative.
		if secs[i] > float64(math.MaxInt64)/float64(time.Second) {
			return r, fmt.Errorf("column %s: duration %v overflows", csvHeader[4+i], secs[i])
		}
	}
	r.IOTime = time.Duration(secs[0] * float64(time.Second))
	r.CompTime = time.Duration(secs[1] * float64(time.Second))
	r.DrainTime = time.Duration(secs[2] * float64(time.Second))
	return r, nil
}
