package pfs

import (
	"testing"
	"time"

	"asyncio/internal/metrics"
	"asyncio/internal/vclock"
)

// TestStatsCountsChargedTrafficOnly locks the Stats contract: only
// operations that actually charged the target (live proc, positive
// bytes) are counted.
func TestStatsCountsChargedTrafficOnly(t *testing.T) {
	clk := vclock.New()
	tg := basicTarget(clk)
	// Untimed operations must not count.
	tg.WriteData(nil, MB)
	tg.ReadData(nil, MB)
	tg.MetaOp(nil)
	clk.Go("r", func(p *vclock.Proc) {
		tg.WriteData(p, 0) // zero bytes: not served
		tg.ReadData(p, -5) // negative: not served
		tg.WriteData(p, MB)
		tg.WriteData(p, 2*MB)
		tg.ReadData(p, 3*MB)
		tg.MetaOp(p)
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	got := tg.Stats()
	want := Stats{WriteOps: 2, ReadOps: 1, MetaOps: 1, BytesWritten: 3 * MB, BytesRead: 3 * MB}
	if got != want {
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}
}

// TestInstrumentMirrorsStats locks the registry-export semantics of
// satellite work: after Instrument, the pfs.<name>.* counters track
// Stats exactly, and configuration gauges are published.
func TestInstrumentMirrorsStats(t *testing.T) {
	clk := vclock.New()
	tg := basicTarget(clk)
	reg := metrics.NewRegistry(clk)
	tg.Instrument(reg)

	clk.Go("r", func(p *vclock.Proc) {
		tg.WriteData(p, 2*MB)
		tg.ReadData(p, MB)
		tg.MetaOp(p)
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}

	st := tg.Stats()
	checks := []struct {
		metric string
		want   int64
	}{
		{"pfs.test.write_ops", st.WriteOps},
		{"pfs.test.read_ops", st.ReadOps},
		{"pfs.test.meta_ops", st.MetaOps},
		{"pfs.test.bytes_written", st.BytesWritten},
		{"pfs.test.bytes_read", st.BytesRead},
	}
	for _, c := range checks {
		ctr := reg.FindCounter(c.metric)
		if ctr == nil {
			t.Fatalf("%s not registered (have %v)", c.metric, reg.Names())
		}
		if ctr.Value() != c.want {
			t.Errorf("%s = %d, want %d", c.metric, ctr.Value(), c.want)
		}
	}
	if g := reg.FindGauge("pfs.test.peak_bw_bytes_per_sec"); g == nil || g.Value() != 100*MB {
		t.Fatalf("peak_bw gauge = %v", g.Value())
	}
	if g := reg.FindGauge("pfs.test.contention_factor"); g == nil || g.Value() != 1 {
		t.Fatalf("contention gauge = %v", g.Value())
	}
	// All flows done: in-flight and the bandwidth derived from it are 0.
	if g := reg.FindGauge("pfs.test.inflight"); g.Value() != 0 {
		t.Fatalf("inflight = %v after completion", g.Value())
	}
	if g := reg.FindGauge("pfs.test.effective_bw_bytes_per_sec"); g.Value() != 0 {
		t.Fatalf("effective bw = %v after completion", g.Value())
	}
}

// TestInstrumentEffectiveBandwidthTracksInflight checks the derived
// series: while n flows are active, effective bandwidth equals the
// processor-sharing capacity for n, and utilization is its fraction of
// the peak.
func TestInstrumentEffectiveBandwidthTracksInflight(t *testing.T) {
	clk := vclock.New()
	tg := basicTarget(clk)
	reg := metrics.NewRegistry(clk)
	reg.EnableSeries()
	tg.Instrument(reg)

	const flows = 4
	release := clk.Hold() // every proc exists before any runs
	for i := 0; i < flows; i++ {
		clk.Go("r", func(p *vclock.Proc) {
			tg.WriteData(p, 10*MB)
		})
	}
	release()
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}

	inflight := reg.FindGauge("pfs.test.inflight").Series()
	eff := reg.FindGauge("pfs.test.effective_bw_bytes_per_sec").Series()
	if len(inflight) == 0 || len(eff) == 0 {
		t.Fatal("derived series missing")
	}
	// All four flows start at t=0: the coalesced first point holds the
	// instant's final state, and the final point returns to zero.
	if first := inflight[0]; first.At != 0 || first.V != flows {
		t.Fatalf("inflight[0] = %+v, want {0 %d}", first, flows)
	}
	if want := tg.capacityFor(flows); eff[0].V != want {
		t.Fatalf("eff[0].V = %v, want capacityFor(%d) = %v", eff[0].V, flows, want)
	}
	if last := inflight[len(inflight)-1]; last.V != 0 {
		t.Fatalf("inflight final = %+v, want 0", last)
	}
	if last := eff[len(eff)-1]; last.V != 0 {
		t.Fatalf("effective bw final = %+v, want 0", last)
	}
	util := reg.FindGauge("pfs.test.utilization").Series()
	if util[0].V != eff[0].V/(100*MB) {
		t.Fatalf("utilization[0] = %v, want %v", util[0].V, eff[0].V/(100*MB))
	}
}

// TestInstrumentSmallRequestPenalty checks the penalty counters: a
// request at the efficiency knee is inflated to 2× its size, costing
// the backend the same again in extra bytes.
func TestInstrumentSmallRequestPenalty(t *testing.T) {
	clk := vclock.New()
	tg := NewTarget(clk, TargetConfig{
		Name:        "pen",
		BackendPeak: 100 * MB,
		ReqRamp:     1 << 20,
	})
	reg := metrics.NewRegistry(clk)
	tg.Instrument(reg)
	clk.Go("r", func(p *vclock.Proc) {
		tg.WriteData(p, 1<<20) // efficiency 0.5 → served 2 MiB
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	if v := reg.FindCounter("pfs.pen.small_request_penalty_hits").Value(); v != 1 {
		t.Fatalf("penalty hits = %d, want 1", v)
	}
	if v := reg.FindCounter("pfs.pen.small_request_penalty_bytes").Value(); v != 1<<20 {
		t.Fatalf("penalty bytes = %d, want %d", v, 1<<20)
	}
}

// TestUninstrumentedTargetWorks locks the nil-instrument contract:
// a target never passed to Instrument must work identically.
func TestUninstrumentedTargetWorks(t *testing.T) {
	clk := vclock.New()
	tg := basicTarget(clk)
	tg.Instrument(nil) // explicit nil registry is a no-op
	var end time.Duration
	clk.Go("r", func(p *vclock.Proc) {
		tg.WriteData(p, 10*MB)
		end = p.Now()
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	if end == 0 {
		t.Fatal("transfer did not advance time")
	}
	tg.SetContentionFactor(0.5) // must not panic on nil mContention
	if tg.Stats().WriteOps != 1 {
		t.Fatalf("stats = %+v", tg.Stats())
	}
}
