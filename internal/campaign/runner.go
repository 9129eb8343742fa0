package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"asyncio/internal/core"
	"asyncio/internal/critpath"
	"asyncio/internal/experiments"
	"asyncio/internal/faults"
	"asyncio/internal/perfetto"
	"asyncio/internal/pfs"
	"asyncio/internal/recovery"
	"asyncio/internal/systems"
	"asyncio/internal/trace"
	"asyncio/internal/vclock"
	"asyncio/internal/workloads/bdcats"
	"asyncio/internal/workloads/castro"
	"asyncio/internal/workloads/eqsim"
	"asyncio/internal/workloads/harness"
	"asyncio/internal/workloads/nyx"
	"asyncio/internal/workloads/vpicio"
)

// ComputePoint simulates point i of the canonical spec c and returns
// its deterministic encoding — the bytes the cache stores. Every point
// is an independent run on its own virtual clock, so concurrent points
// from differently-configured campaigns never share state.
func ComputePoint(c *Spec, i int) ([]byte, error) {
	if c.Kind == "sweep" {
		return computeSweepPoint(c, i)
	}
	if i != 0 {
		return nil, fmt.Errorf("campaign: run spec has exactly one point, got index %d", i)
	}
	return computeRunPoint(c)
}

// runKnobs converts the spec's parsed knob block into the explicit
// per-run knobs the experiments package threads through a sweep.
func runKnobs(c *Spec) (*experiments.RunKnobs, error) {
	pk, err := c.knobBlock().Parse()
	if err != nil {
		return nil, err
	}
	return &experiments.RunKnobs{
		Faults:      pk.Faults,
		Consistency: pk.Consistency,
	}, nil
}

func computeSweepPoint(c *Spec, i int) ([]byte, error) {
	k, err := runKnobs(c)
	if err != nil {
		return nil, err
	}
	p, err := experiments.SimulateSweepPoint(c.Sweep, scaleOf(c.Scale), i, k)
	if err != nil {
		return nil, err
	}
	return encodeSweepPoint(p), nil
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

func decodeSweepPoint(b []byte) (experiments.SweepPoint, error) {
	var p experiments.SweepPoint
	for _, line := range strings.Split(strings.TrimRight(string(b), "\n"), "\n") {
		k, v, ok := strings.Cut(line, "=")
		if !ok {
			return p, fmt.Errorf("campaign: malformed point line %q", line)
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
// sweep point or a run bundle. The durable store's read path uses it as
// a belt-and-braces check on top of the frame checksum: a record whose
// frame verifies but whose payload no longer parses is treated as a
// miss and recomputed, never served.
func ValidatePointPayload(b []byte) error {
	if _, err := decodeSweepPoint(b); err == nil {
		return nil
	}
	if _, err := DecodeBundle(b); err == nil {
		return nil
	}
	return fmt.Errorf("campaign: payload is neither a sweep point nor a run bundle")
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

// Bundle artifact names for run-kind results.
const (
	ArtifactTrace    = "trace.csv"
	ArtifactMetrics  = "metrics.csv"
	ArtifactPerfetto = "perfetto.json"
	ArtifactCritPath = "critpath.json"
	ArtifactSummary  = "summary.txt"
)

// DecodeBundle unpacks a run-kind point payload into its artifacts.
func DecodeBundle(b []byte) (map[string][]byte, error) {
	var m map[string][]byte
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("campaign: decoding bundle: %w", err)
	}
	return m, nil
}

// computeRunPoint executes one instrumented run — the service-side
// twin of cmd/asyncio-trace — and packs every artifact the CLI can
// export into one deterministic JSON bundle (sorted keys, base64
// values). An injected crash still produces the bundle: the partial
// artifacts plus the crash/tear/journal-scan classification in the
// summary are the result of a crash campaign, not a service error.
func computeRunPoint(c *Spec) ([]byte, error) {
	pk, err := c.knobBlock().Parse()
	if err != nil {
		return nil, err
	}
	var mode core.Mode
	switch c.Mode {
	case "sync":
		mode = core.ForceSync
	case "async":
		mode = core.ForceAsync
	default:
		mode = core.Adaptive
	}

	var sysOpts []systems.Option
	if pk.Faults != nil {
		sysOpts = append(sysOpts, systems.WithFaults(faults.FromSpec(pk.Faults)))
	}
	sysOpts = append(sysOpts, systems.WithCritPath(critpath.NewRecorder()))
	var cons *pfs.Consistency
	if pk.Consistency != nil {
		sp := *pk.Consistency
		cons = pfs.NewConsistency(&sp)
		sysOpts = append(sysOpts, systems.WithConsistency(cons))
	}
	clk := vclock.New()
	var sys *systems.System
	if c.System == "summit" {
		sys = systems.Summit(clk, c.Nodes, sysOpts...)
	} else {
		sys = systems.CoriHaswell(clk, c.Nodes, sysOpts...)
	}
	sys.Metrics.EnableSeries()

	var kit *harness.CrashKit
	var ck *harness.Checkpointer
	if c.Workload == "vpic" && (c.CheckpointEvery > 0 || c.Journal) {
		kit = harness.NewCrashKit(pk.Durability, recovery.DefaultCost(), c.Journal)
		ck = harness.NewCheckpointer(c.CheckpointEvery, kit.Journal)
		ck.Instrument(sys.Metrics)
		kit.Journal.Instrument(sys.Metrics, c.Workload)
		kit.SetCrit(sys.Crit)
	}

	var rep *core.Report
	switch c.Workload {
	case "vpic":
		cfg := vpicio.Config{Steps: c.Steps, ComputeTime: c.ComputeTime(), Mode: mode}
		if kit != nil {
			cfg.Store = kit.Durable
			cfg.Checkpoint = ck
			if c.Journal {
				cfg.Env.AsyncInlineStages = kit.InlineStages()
			}
		}
		rep, _, err = vpicio.Run(sys, cfg)
	case "bdcats":
		rep, err = bdcats.Run(sys, bdcats.Config{Steps: c.Steps, ComputeTime: c.ComputeTime(), Mode: mode}, nil)
	case "nyx":
		cfg := nyx.SmallConfig()
		cfg.Plotfiles = c.Steps
		cfg.Mode = mode
		rep, err = nyx.Run(sys, cfg)
	case "castro":
		rep, err = castro.Run(sys, castro.Config{Checkpoints: c.Steps, ComputeTime: c.ComputeTime(), Mode: mode})
	case "eqsim":
		rep, err = eqsim.Run(sys, eqsim.Config{Checkpoints: c.Steps, Mode: mode})
	}
	aborted := err != nil && rep != nil && rep.Aborted
	if err != nil && !aborted {
		return nil, err
	}

	bundle := make(map[string][]byte)
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, rep.Run.Records); err != nil {
		return nil, fmt.Errorf("campaign: trace CSV: %w", err)
	}
	bundle[ArtifactTrace] = append([]byte(nil), buf.Bytes()...)

	buf.Reset()
	label := fmt.Sprintf("%s-%s-%dn-%s", c.Workload, sys.Name, sys.Nodes(), c.Mode)
	if err := rep.Metrics.WriteCSV(&buf, label); err != nil {
		return nil, fmt.Errorf("campaign: metrics CSV: %w", err)
	}
	bundle[ArtifactMetrics] = append([]byte(nil), buf.Bytes()...)

	buf.Reset()
	if err := perfetto.WriteProfile(&buf, rep.Spans, rep.Metrics, rep.CritPath); err != nil {
		return nil, fmt.Errorf("campaign: perfetto: %w", err)
	}
	bundle[ArtifactPerfetto] = append([]byte(nil), buf.Bytes()...)

	if rep.CritPath != nil {
		buf.Reset()
		if err := rep.CritPath.WriteJSON(&buf); err != nil {
			return nil, fmt.Errorf("campaign: critpath: %w", err)
		}
		bundle[ArtifactCritPath] = append([]byte(nil), buf.Bytes()...)
	}

	var sum bytes.Buffer
	fmt.Fprintf(&sum, "%s on %s, %d nodes (%d ranks), %d epochs, mode=%s: total %v, peak %.2f GB/s\n",
		c.Workload, sys.Name, sys.Nodes(), rep.Run.Ranks, len(rep.Run.Records), c.Mode,
		rep.Run.TotalTime().Round(time.Millisecond), rep.Run.PeakRate()/1e9)
	if cons != nil {
		fmt.Fprintf(&sum, "consistency: %s, visibility wait %v\n",
			cons.Checker().Summary(), time.Duration(cons.VisibilityWaitNs()))
		if cerr := cons.Checker().Check(); cerr != nil && !aborted {
			return nil, fmt.Errorf("campaign: consistency check: %w", cerr)
		}
	}
	if aborted {
		for _, cr := range rep.Crashes {
			fmt.Fprintf(&sum, "crash at %v: ranks %v (%s)\n", cr.At, cr.Ranks, cr.Err)
		}
		if kit != nil {
			if pr := kit.Durable.Crash(clk.Now()); pr != nil {
				fmt.Fprintf(&sum, "write-back cache at crash: %d dirty bytes → %d flushed, %d torn, %d lost\n",
					pr.DirtyBytes, pr.Flushed, pr.Torn, pr.Lost)
			}
			scan := recovery.Scan(kit.Journal.Bytes(), kit.Base, recovery.ScanOptions{Replay: true})
			fmt.Fprintf(&sum, "journal scan: %s\n", scan.Summary())
			fmt.Fprintf(&sum, "last durable checkpoint: epoch %d (restart from %d)\n",
				ck.LastDurable(), ck.LastDurable()+1)
		}
		fmt.Fprintf(&sum, "run aborted: %v\n", err)
	}
	bundle[ArtifactSummary] = sum.Bytes()

	// json.Marshal of map[string][]byte sorts keys and base64-encodes
	// values: one canonical byte encoding of the whole artifact set.
	out, err := json.Marshal(bundle)
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
