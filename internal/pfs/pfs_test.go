package pfs

import (
	"math"
	"sync"
	"testing"
	"time"

	"asyncio/internal/vclock"
)

const (
	MB = 1e6
	GB = 1e9
)

func basicTarget(clk *vclock.Clock) *Target {
	return NewTarget(clk, TargetConfig{
		Name:        "test",
		BackendPeak: 100 * MB,
		PerFlowBW:   10 * MB,
	})
}

func TestSingleFlowLimitedByPerFlowBW(t *testing.T) {
	clk := vclock.New()
	tg := basicTarget(clk)
	var end time.Duration
	clk.Go("r", func(p *vclock.Proc) {
		tg.WriteData(p, 10*MB)
		end = p.Now()
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	// 10 MB at a 10 MB/s per-flow cap ≈ 1s (soft saturation trims <1%).
	if math.Abs(end.Seconds()-1) > 0.02 {
		t.Fatalf("end = %vs, want ~1s", end.Seconds())
	}
}

func TestAggregateScalesUntilBackendPeak(t *testing.T) {
	// 20 flows × 10 MB/s per-flow = 200 MB/s demand versus a 100 MB/s
	// backend: each flow runs at 5 MB/s.
	clk := vclock.New()
	tg := basicTarget(clk)
	var mu sync.Mutex
	var last time.Duration
	release := clk.Hold() // every proc exists before any runs
	for i := 0; i < 20; i++ {
		clk.Go("r", func(p *vclock.Proc) {
			tg.WriteData(p, 10*MB)
			mu.Lock()
			if p.Now() > last {
				last = p.Now()
			}
			mu.Unlock()
		})
	}
	release()
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	// 200 MB total demand vs a 100 MB/s backend: ~2s (soft saturation
	// admits slightly less than the hard-min rate).
	if last.Seconds() < 1.95 || last.Seconds() > 2.3 {
		t.Fatalf("saturated completion at %vs, want ~2s", last.Seconds())
	}
}

func TestSmallRequestEfficiencyPenalty(t *testing.T) {
	clk := vclock.New()
	tg := NewTarget(clk, TargetConfig{
		Name:        "penalized",
		BackendPeak: 100 * MB,
		ReqRamp:     1 << 20, // 1 MiB knee
	})
	var small, large time.Duration
	clk.Go("r", func(p *vclock.Proc) {
		start := p.Now()
		tg.WriteData(p, 1<<20) // equal to ramp → efficiency 0.5
		small = p.Now() - start
		start = p.Now()
		tg.WriteData(p, 100<<20) // efficiency ~0.99
		large = p.Now() - start
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	smallBW := float64(1<<20) / small.Seconds()
	largeBW := float64(100<<20) / large.Seconds()
	if smallBW > 0.55*largeBW {
		t.Fatalf("small request bw %.3g not penalized vs %.3g", smallBW, largeBW)
	}
}

func TestOpAndMetaLatency(t *testing.T) {
	clk := vclock.New()
	tg := NewTarget(clk, TargetConfig{
		Name:        "lat",
		BackendPeak: 100 * MB,
		MetaLatency: 2 * time.Millisecond,
		OpLatency:   1 * time.Millisecond,
	})
	var end time.Duration
	clk.Go("r", func(p *vclock.Proc) {
		tg.MetaOp(p)
		tg.ReadData(p, 100*MB) // 1ms latency + 1s transfer
		end = p.Now()
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	want := 2*time.Millisecond + 1*time.Millisecond + time.Second
	if d := end - want; d < -time.Microsecond || d > time.Microsecond {
		t.Fatalf("end = %v, want %v", end, want)
	}
}

func TestNilProcAndZeroBytesAreNoops(t *testing.T) {
	clk := vclock.New()
	tg := basicTarget(clk)
	tg.WriteData(nil, 100*MB)
	tg.ReadData(nil, 100*MB)
	tg.MetaOp(nil)
	clk.Go("r", func(p *vclock.Proc) {
		tg.WriteData(p, 0)
		tg.ReadData(p, -1)
		if p.Now() != 0 {
			t.Errorf("no-op transfers advanced time to %v", p.Now())
		}
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestContentionSlowsSingleFlow(t *testing.T) {
	// Contention models shared fabric plus storage, so even a lone
	// flow's client path degrades — the paper's Fig. 8 scatter exists
	// at every scale.
	clk := vclock.New()
	tg := basicTarget(clk)
	tg.SetContentionFactor(0.5)
	if tg.ContentionFactor() != 0.5 {
		t.Fatalf("factor = %v", tg.ContentionFactor())
	}
	var end time.Duration
	clk.Go("r", func(p *vclock.Proc) {
		tg.WriteData(p, 10*MB)
		end = p.Now()
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	// Per-flow 10→5 MB/s: 10 MB takes ~2s.
	if end.Seconds() < 1.95 || end.Seconds() > 2.1 {
		t.Fatalf("end = %vs, want ~2s", end.Seconds())
	}
}

func TestContentionBindsUnderLoad(t *testing.T) {
	clk := vclock.New()
	tg := basicTarget(clk)
	tg.SetContentionFactor(0.5) // backend 50 MB/s
	var mu sync.Mutex
	var last time.Duration
	release := clk.Hold() // every proc exists before any runs
	for i := 0; i < 10; i++ {
		clk.Go("r", func(p *vclock.Proc) {
			tg.WriteData(p, 10*MB)
			mu.Lock()
			if p.Now() > last {
				last = p.Now()
			}
			mu.Unlock()
		})
	}
	release()
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	// 100 MB total at ~50 MB/s ≈ 2s (without contention ~1s).
	if last.Seconds() < 1.95 || last.Seconds() > 2.6 {
		t.Fatalf("contended completion at %vs, want ~2s", last.Seconds())
	}
}

func TestContentionFactorValidation(t *testing.T) {
	tg := basicTarget(vclock.New())
	for _, f := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetContentionFactor(%v) did not panic", f)
				}
			}()
			tg.SetContentionFactor(f)
		}()
	}
}

func TestContentionForDayDeterministicAndBounded(t *testing.T) {
	seen := map[float64]bool{}
	for day := int64(0); day < 50; day++ {
		f1 := ContentionForDay(42, day)
		f2 := ContentionForDay(42, day)
		if f1 != f2 {
			t.Fatalf("day %d not deterministic: %v vs %v", day, f1, f2)
		}
		if f1 <= 0.3 || f1 > 1 {
			t.Fatalf("day %d factor %v outside (0.3, 1]", day, f1)
		}
		seen[f1] = true
	}
	if len(seen) < 10 {
		t.Fatalf("only %d distinct factors across 50 days", len(seen))
	}
	if ContentionForDay(42, 1) == ContentionForDay(43, 1) {
		t.Fatal("different seeds produced identical factors")
	}
}

func TestGPFSStrongScalingShape(t *testing.T) {
	// The headline strong-scaling effect: fixed total data, more ranks →
	// smaller requests → lower aggregate bandwidth once saturated.
	clk := vclock.New()
	g := GPFS(clk, GPFSConfig{
		BackendPeak: 100 * MB,
		PerFlowBW:   10 * MB,
		ReactRamp:   4 << 20,
	})
	bwAt := func(ranks int) float64 {
		total := int64(64 << 20)
		per := total / int64(ranks)
		return g.EffectiveBandwidth(ranks, per)
	}
	if bwAt(16) <= bwAt(4) {
		t.Fatalf("pre-saturation scaling broken: %v vs %v", bwAt(16), bwAt(4))
	}
	if bwAt(512) >= bwAt(16) {
		t.Fatalf("strong-scaling decay missing: bw(512)=%.3g >= bw(16)=%.3g", bwAt(512), bwAt(16))
	}
}

func TestLustreBackendIsOSTAggregate(t *testing.T) {
	clk := vclock.New()
	l := Lustre(clk, LustreConfig{
		OSTs:         72,
		OSTBandwidth: 1.4 * GB,
		PerFlowBW:    0.1 * GB,
	})
	want := 72 * 1.4 * GB
	if got := l.Config().BackendPeak; math.Abs(got-want) > 1 {
		t.Fatalf("BackendPeak = %v, want %v", got, want)
	}
	// Knee position: n*perFlow = peak → ~1008 ranks; well past it the
	// soft saturation approaches the OST aggregate.
	if bw := l.EffectiveBandwidth(4096, 64<<20); bw < 0.9*want || bw > want {
		t.Fatalf("saturated bw = %.4g, want ≈ %.4g", bw, want)
	}
}

func TestBurstBufferFasterThanLustre(t *testing.T) {
	clk := vclock.New()
	bb := BurstBuffer(clk, 1.7e12, 0.3*GB)
	l := Lustre(clk, LustreConfig{OSTs: 72, OSTBandwidth: 1.4 * GB, PerFlowBW: 0.1 * GB})
	if bb.EffectiveBandwidth(4096, 32<<20) <= l.EffectiveBandwidth(4096, 32<<20) {
		t.Fatal("burst buffer not faster than Lustre at scale")
	}
}

// TestAllocBudgetCharges: with no span and no recorder attached, a
// charged operation builds no label string — MetaOp allocates nothing,
// and a data charge only the flow server's two timer handles.
func TestAllocBudgetCharges(t *testing.T) {
	clk := vclock.New()
	tg := NewTarget(clk, TargetConfig{
		Name: "test", BackendPeak: 100 * MB, PerFlowBW: 10 * MB,
		MetaLatency: time.Millisecond, OpLatency: time.Microsecond,
	})
	if tg.writeLabel != "pfs:test:write" || tg.readLabel != "pfs:test:read" || tg.metaLabel != "meta:test" {
		t.Fatalf("labels %q %q %q", tg.writeLabel, tg.readLabel, tg.metaLabel)
	}
	var meta, write, read float64
	clk.Go("r", func(p *vclock.Proc) {
		tg.WriteData(p, MB) // warm the flow server's free-list
		meta = testing.AllocsPerRun(100, func() { tg.MetaOp(p) })
		write = testing.AllocsPerRun(100, func() { _ = tg.TryWriteData(p, MB, nil) })
		read = testing.AllocsPerRun(100, func() { _ = tg.TryReadData(p, MB, nil) })
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	if meta > 0 || write > 2 || read > 2 {
		t.Fatalf("allocs per op: MetaOp %.0f (budget 0), TryWriteData %.0f, TryReadData %.0f (budget 2)", meta, write, read)
	}
}
