package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"asyncio/internal/experiments"
)

// ComputePoint simulates point i of the canonical spec c and returns
// its deterministic encoding — the bytes the cache stores. Every point
// is an independent run on its own virtual clock, so concurrent points
// from differently-configured campaigns never share state.
func ComputePoint(c *Spec, i int) ([]byte, error) {
	k, err := c.Knobs.Parse()
	if err != nil {
		return nil, err
	}
	if c.Kind == "sweep" {
		p, err := experiments.SimulateSweepPoint(c.Sweep, scaleOf(c.Scale), i, k)
		if err != nil {
			return nil, err
		}
		return encodeSweepPoint(p), nil
	}
	if i != 0 {
		return nil, fmt.Errorf("campaign: run spec has exactly one point, got index %d", i)
	}
	return computeRunPoint(c, k)
}

// encodeSweepPoint renders a point exactly: FormatFloat 'g' with -1
// precision round-trips float64 bit-for-bit, so decode(encode(p)) == p
// and cached points reassemble into byte-identical tables.
func encodeSweepPoint(p experiments.SweepPoint) []byte {
	return []byte(fmt.Sprintf("ranks=%d\npeak=%s\nest=%s\n",
		p.Ranks,
		strconv.FormatFloat(p.Peak, 'g', -1, 64),
		strconv.FormatFloat(p.Est, 'g', -1, 64)))
}

// maxSweepPointBytes is above anything encodeSweepPoint can emit (an int
// and two shortest-round-trip floats: under 90 bytes).
const maxSweepPointBytes = 256

func decodeSweepPoint(b []byte) (experiments.SweepPoint, error) {
	var p experiments.SweepPoint
	if len(b) > maxSweepPointBytes {
		return p, fmt.Errorf("campaign: %d-byte payload is too long for a sweep point", len(b))
	}
	for _, line := range strings.Split(strings.TrimRight(string(b), "\n"), "\n") {
		k, v, ok := strings.Cut(line, "=")
		if !ok {
			return p, fmt.Errorf("campaign: malformed point line %q", truncate(line))
		}
		var err error
		switch k {
		case "ranks":
			p.Ranks, err = strconv.Atoi(v)
		case "peak":
			p.Peak, err = strconv.ParseFloat(v, 64)
		case "est":
			p.Est, err = strconv.ParseFloat(v, 64)
		default:
			err = fmt.Errorf("unknown key %q", k)
		}
		if err != nil {
			return p, fmt.Errorf("campaign: decoding point: %w", err)
		}
	}
	return p, nil
}

// ValidatePointPayload checks that b parses as some point result — a
// run bundle (the only payload that starts with a brace) or a sweep
// point — in full and exactly once. The durable store's read path uses
// it as a belt-and-braces check on top of the frame checksum: a record
// whose frame verifies but whose payload no longer parses is treated as
// a miss and recomputed, never served.
func ValidatePointPayload(b []byte) error {
	if len(b) > 0 && b[0] == '{' {
		return validateBundle(b)
	}
	_, err := decodeSweepPoint(b)
	return err
}

// AssembleSweepTable reassembles index-ordered point payloads into the
// rendered figure table — byte-identical to the CLI sweep path
// (experiments.SimulateSweep + AssembleSweep), pinned by the parity
// test in internal/experiments.
func AssembleSweepTable(c *Spec, payloads [][]byte) ([]byte, error) {
	halves := make([]experiments.SweepPoint, len(payloads))
	for i, b := range payloads {
		p, err := decodeSweepPoint(b)
		if err != nil {
			return nil, err
		}
		halves[i] = p
	}
	data, err := experiments.AssembleSweepPoints(c.Sweep, scaleOf(c.Scale), halves)
	if err != nil {
		return nil, err
	}
	tab, err := experiments.AssembleSweep(data)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// sweepPointsJSON renders the raw points as JSON (the machine-readable
// sweep format).
func sweepPointsJSON(c *Spec, payloads [][]byte) ([]byte, error) {
	type pt struct {
		Point int     `json:"point"`
		Ranks int     `json:"ranks"`
		Peak  float64 `json:"peak_bytes_per_sec"`
		Est   float64 `json:"est_bytes_per_sec"`
	}
	out := struct {
		Sweep  string `json:"sweep"`
		Scale  string `json:"scale"`
		Points []pt   `json:"points"`
	}{Sweep: c.Sweep, Scale: c.Scale}
	for i, b := range payloads {
		p, err := decodeSweepPoint(b)
		if err != nil {
			return nil, err
		}
		out.Points = append(out.Points, pt{Point: i, Ranks: p.Ranks, Peak: p.Peak, Est: p.Est})
	}
	b, err := json.Marshal(&out)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// sweepPointsCSV renders the raw points as CSV.
func sweepPointsCSV(payloads [][]byte) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString("point,ranks,peak_bytes_per_sec,est_bytes_per_sec\n")
	for i, b := range payloads {
		p, err := decodeSweepPoint(b)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&buf, "%d,%d,%s,%s\n", i, p.Ranks,
			strconv.FormatFloat(p.Peak, 'g', -1, 64),
			strconv.FormatFloat(p.Est, 'g', -1, 64))
	}
	return buf.Bytes(), nil
}

// computeRunPoint executes one instrumented run (experiments.Run, the
// function cmd/asyncio-trace also calls) with every export switched on,
// and packs the artifacts into one bundle (bundle.go). An injected crash
// still produces the bundle: the partial artifacts plus the
// crash/tear/journal-scan classification in the summary are the result
// of a crash campaign, not a service error.
func computeRunPoint(c *Spec, k *experiments.RunKnobs) ([]byte, error) {
	k.CritPath, k.Series = true, true
	res, err := experiments.Run(c.runSpec(), k)
	if res == nil || (err != nil && !res.Report.Aborted) {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	summary := res.Summary
	if err != nil {
		summary = append(summary, (err.Error() + "\n")...)
	}

	bundle := map[string][]byte{ArtifactSummary: summary}
	for _, a := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{ArtifactTrace, res.WriteTrace},
		{ArtifactMetrics, res.WriteMetrics},
		{ArtifactPerfetto, res.WritePerfetto},
		{ArtifactCritPath, res.Report.CritPath.WriteJSON},
	} {
		var buf bytes.Buffer
		if err := a.write(&buf); err != nil {
			return nil, fmt.Errorf("campaign: %s: %w", a.name, err)
		}
		bundle[a.name] = buf.Bytes()
	}
	return encodeBundle(bundle), nil
}
