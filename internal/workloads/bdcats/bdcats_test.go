package bdcats

import (
	"testing"
	"time"

	"asyncio/internal/core"
	"asyncio/internal/systems"
	"asyncio/internal/trace"
	"asyncio/internal/vclock"
	"asyncio/internal/workloads/vpicio"
)

func TestSyncReadRun(t *testing.T) {
	clk := vclock.New()
	sys := systems.Summit(clk, 1)
	rep, err := Run(sys, Config{
		Steps:            3,
		ParticlesPerRank: 1 << 10,
		ComputeTime:      time.Second,
		Mode:             core.ForceSync,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Run.Records) != 3 {
		t.Fatalf("records = %d", len(rep.Run.Records))
	}
	for _, r := range rep.Run.Records {
		if r.Bytes != 8*(1<<10)*4*6 {
			t.Fatalf("bytes = %d", r.Bytes)
		}
	}
}

func TestAsyncPrefetchAcceleratesLaterSteps(t *testing.T) {
	clk := vclock.New()
	sys := systems.Summit(clk, 2)
	rep, err := Run(sys, Config{
		Steps:       4,
		ComputeTime: 30 * time.Second,
		Mode:        core.ForceAsync,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := rep.Run.Records
	// Step 0 is a blocking read; later steps are served from prefetch
	// staging and should be much faster (paper: "orders of magnitude").
	first := recs[0].IOTime
	for i := 1; i < len(recs); i++ {
		if recs[i].IOTime*3 > first {
			t.Fatalf("step %d io %v not much faster than first %v", i, recs[i].IOTime, first)
		}
	}
}

func TestAsyncReadBandwidthExceedsSync(t *testing.T) {
	run := func(mode core.Mode) float64 {
		clk := vclock.New()
		sys := systems.Summit(clk, 2)
		rep, err := Run(sys, Config{
			Steps:       4,
			ComputeTime: 30 * time.Second,
			Mode:        mode,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Run.PeakRate()
	}
	syncBW := run(core.ForceSync)
	asyncBW := run(core.ForceAsync)
	if asyncBW < 3*syncBW {
		t.Fatalf("async read %.3g not >> sync %.3g", asyncBW, syncBW)
	}
}

func TestReadsDataWrittenByVPIC(t *testing.T) {
	// End-to-end pipeline: run the writer (materialized), then the
	// reader against its file on the same clock.
	clk := vclock.New()
	sys := systems.Summit(clk, 1)
	_, raw, err := vpicio.Run(sys, vpicio.Config{
		Steps:            2,
		ParticlesPerRank: 128,
		ComputeTime:      time.Second,
		Mode:             core.ForceSync,
		Materialize:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(sys, Config{
		Steps:            2,
		ParticlesPerRank: 128,
		ComputeTime:      time.Second,
		Mode:             core.ForceAsync,
		Materialize:      true,
	}, raw)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, r := range rep.Run.Records {
		total += r.Bytes
		if r.Mode != trace.Async {
			t.Fatalf("mode = %v", r.Mode)
		}
	}
	if total != 2*8*128*4*6 {
		t.Fatalf("total bytes = %d", total)
	}
}
