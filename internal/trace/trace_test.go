package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func sampleRecords() []Record {
	return []Record{
		{Epoch: 0, Mode: Sync, Ranks: 64, Bytes: 1 << 30, IOTime: 2 * time.Second, CompTime: 30 * time.Second},
		{Epoch: 1, Mode: Async, Ranks: 64, Bytes: 1 << 30, IOTime: 250 * time.Millisecond, CompTime: 30 * time.Second, DrainTime: time.Second},
	}
}

func TestRecordRate(t *testing.T) {
	r := Record{Bytes: 100, IOTime: 2 * time.Second}
	if got := r.Rate(); got != 50 {
		t.Fatalf("Rate = %v, want 50", got)
	}
	if (Record{Bytes: 100}).Rate() != 0 {
		t.Fatal("zero IOTime must give zero rate")
	}
}

func TestEpochTime(t *testing.T) {
	r := sampleRecords()[1]
	want := 250*time.Millisecond + 30*time.Second + time.Second
	if r.EpochTime() != want {
		t.Fatalf("EpochTime = %v, want %v", r.EpochTime(), want)
	}
}

func TestRunResultAggregates(t *testing.T) {
	rr := RunResult{
		Records:  sampleRecords(),
		InitTime: 3 * time.Second,
		TermTime: time.Second,
	}
	wantTotal := 3*time.Second + time.Second +
		(2*time.Second + 30*time.Second) +
		(250*time.Millisecond + 30*time.Second + time.Second)
	if rr.TotalTime() != wantTotal {
		t.Fatalf("TotalTime = %v, want %v", rr.TotalTime(), wantTotal)
	}
	// Peak rate: async epoch at 1 GiB / 0.25s.
	wantPeak := float64(1<<30) / 0.25
	if got := rr.PeakRate(); got != wantPeak {
		t.Fatalf("PeakRate = %v, want %v", got, wantPeak)
	}
	if rates := rr.Rates(); len(rates) != 2 || rates[0] >= rates[1] {
		t.Fatalf("Rates = %v", rates)
	}
}

func TestCSVRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	recs := sampleRecords()
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("len = %d, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n1,2\n")); err == nil {
		t.Error("bad header accepted")
	}
	bad := "epoch,mode,ranks,bytes,io_seconds,comp_seconds,drain_seconds,rate_bytes_per_sec\n" +
		"0,warp,4,100,1,1,0,100\n"
	if _, err := ReadCSV(strings.NewReader(bad)); err == nil {
		t.Error("unknown mode accepted")
	}
	bad2 := "epoch,mode,ranks,bytes,io_seconds,comp_seconds,drain_seconds,rate_bytes_per_sec\n" +
		"x,sync,4,100,1,1,0,100\n"
	if _, err := ReadCSV(strings.NewReader(bad2)); err == nil {
		t.Error("non-numeric epoch accepted")
	}
}
