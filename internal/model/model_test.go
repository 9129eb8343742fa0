package model

import (
	"errors"
	"math"
	"testing"
	"time"

	"asyncio/internal/trace"
)

func TestHistoryBound(t *testing.T) {
	h := NewHistory(3)
	for i := 0; i < 5; i++ {
		h.Add(Observation{Bytes: int64(i), Ranks: 1, Rate: 1})
	}
	if len(h.Snapshot()) != 3 {
		t.Fatalf("Len = %d, want 3", len(h.Snapshot()))
	}
	snap := h.Snapshot()
	if snap[0].Bytes != 2 || snap[2].Bytes != 4 {
		t.Fatalf("Snapshot = %+v, want newest 3", snap)
	}
}

func TestHistoryUnbounded(t *testing.T) {
	h := NewHistory(0)
	for i := 0; i < 100; i++ {
		h.Add(Observation{Bytes: 1, Ranks: 1, Rate: 1})
	}
	if len(h.Snapshot()) != 100 {
		t.Fatalf("Len = %d", len(h.Snapshot()))
	}
}

func TestFitRateInsufficientData(t *testing.T) {
	h := NewHistory(0)
	h.Add(Observation{Bytes: 1, Ranks: 1, Rate: 1})
	if _, err := FitRate(h, FitLinearLogRanks); !errors.Is(err, ErrInsufficientData) {
		t.Fatalf("err = %v", err)
	}
}

func TestFitLinearSizeRanksRecovers(t *testing.T) {
	// rate = 2·size + 1e6·ranks, the async Eq. 4 shape.
	h := NewHistory(0)
	for _, o := range []Observation{
		{Bytes: 1 << 20, Ranks: 6, Rate: 2*(1<<20) + 6e6},
		{Bytes: 2 << 20, Ranks: 48, Rate: 2*(2<<20) + 48e6},
		{Bytes: 4 << 20, Ranks: 12, Rate: 2*(4<<20) + 12e6},
		{Bytes: 8 << 20, Ranks: 96, Rate: 2*(8<<20) + 96e6},
		{Bytes: 16 << 20, Ranks: 24, Rate: 2*(16<<20) + 24e6},
	} {
		h.Add(o)
	}
	m, err := FitRate(h, FitLinearSizeRanks)
	if err != nil {
		t.Fatal(err)
	}
	if m.R2() < 0.999 {
		t.Fatalf("R2 = %v", m.R2())
	}
	got := m.EstimateRate(32<<20, 192)
	want := 2*float64(32<<20) + 192e6
	if math.Abs(got-want)/want > 1e-6 {
		t.Fatalf("EstimateRate = %v, want %v", got, want)
	}
}

func TestFitLinearLogRanksSaturating(t *testing.T) {
	h := NewHistory(0)
	for n := 1; n <= 1024; n *= 4 {
		h.Add(Observation{Bytes: 1 << 30, Ranks: n, Rate: 5e9 + 2e9*math.Log(float64(n))})
	}
	m, err := FitRate(h, FitLinearLogRanks)
	if err != nil {
		t.Fatal(err)
	}
	if m.R2() < 0.999 {
		t.Fatalf("R2 = %v", m.R2())
	}
	est := m.EstimateRate(1<<30, 256)
	want := 5e9 + 2e9*math.Log(256)
	if math.Abs(est-want)/want > 1e-9 {
		t.Fatalf("EstimateRate = %v, want %v", est, want)
	}
	// Eq. 3: t_io = size / rate.
	d := m.EstimateIOTime(1<<30, 256)
	wantD := float64(1<<30) / want
	if math.Abs(d.Seconds()-wantD) > 1e-9 {
		t.Fatalf("EstimateIOTime = %v, want %vs", d, wantD)
	}
}

func TestEstimateRateFloor(t *testing.T) {
	// A wildly extrapolated linear-log model can predict negative rates;
	// estimates must stay positive.
	h := NewHistory(0)
	h.Add(Observation{Bytes: 1, Ranks: 100, Rate: 10})
	h.Add(Observation{Bytes: 1, Ranks: 200, Rate: 5})
	h.Add(Observation{Bytes: 1, Ranks: 400, Rate: 1})
	m, err := FitRate(h, FitLinearLogRanks)
	if err != nil {
		t.Fatal(err)
	}
	if r := m.EstimateRate(1, 1_000_000); r < 1 {
		t.Fatalf("rate = %v, want floored at 1", r)
	}
}

func TestFitKindString(t *testing.T) {
	if FitLinearSizeRanks.String() == "" || FitLinearLogRanks.String() == "" || FitLinearRanks.String() == "" {
		t.Fatal("empty FitKind names")
	}
	if FitKind(99).String() == "" {
		t.Fatal("unknown kind must still render")
	}
}

// seedEstimator feeds an estimator a consistent world: sync I/O at a
// saturating rate, overhead at a linear rate, constant compute.
func seedEstimator(comp time.Duration, syncRate, overheadRatePerRank float64, ranks int) *Estimator {
	e := NewEstimator()
	for i := 1; i <= 5; i++ {
		bytes := int64(i) * (1 << 28)
		e.ObserveComp(comp)
		e.ObserveSyncIO(bytes, ranks, time.Duration(float64(bytes)/syncRate*float64(time.Second)))
		ovRate := overheadRatePerRank * float64(ranks)
		e.ObserveOverhead(bytes, ranks, time.Duration(float64(bytes)/ovRate*float64(time.Second)))
	}
	return e
}

func TestEstimatorNotReadyWithoutData(t *testing.T) {
	e := NewEstimator()
	if _, ok := e.EstimateEpoch(1<<30, 64); ok {
		t.Fatal("empty estimator produced an estimate")
	}
	if _, ok := e.CompEstimate(); ok {
		t.Fatal("empty estimator has a comp estimate")
	}
	if _, ok := e.SyncModel(); ok {
		t.Fatal("empty estimator has a sync model")
	}
	if _, ok := e.AsyncModel(); ok {
		t.Fatal("empty estimator has an async model")
	}
}

func TestEstimateEpochIdealOverlap(t *testing.T) {
	// Compute 30s, sync I/O rate 1 GB/s, overhead rate 4 GB/s/rank ×
	// 64 ranks. For 8 GB: t_io = 8s ≤ comp → async = comp + overhead.
	e := seedEstimator(30*time.Second, 1e9, 4e9, 64)
	est, ok := e.EstimateEpoch(8e9, 64)
	if !ok {
		t.Fatal("estimator not ready")
	}
	if math.Abs(est.SyncIO.Seconds()-8) > 0.2 {
		t.Fatalf("SyncIO = %v, want ~8s", est.SyncIO)
	}
	if math.Abs(est.Sync.Seconds()-38) > 0.3 {
		t.Fatalf("Sync = %v, want ~38s (Eq. 2a)", est.Sync)
	}
	wantOv := 8e9 / (4e9 * 64)
	if math.Abs(est.Overhead.Seconds()-wantOv) > 0.01 {
		t.Fatalf("Overhead = %v, want ~%vs", est.Overhead, wantOv)
	}
	wantAsync := 30 + wantOv
	if math.Abs(est.Async.Seconds()-wantAsync) > 0.3 {
		t.Fatalf("Async = %v, want ~%vs (Eq. 2b, full overlap)", est.Async, wantAsync)
	}
	if est.Better() != trace.Async {
		t.Fatal("async should win in the ideal scenario")
	}
	if est.SlowdownRegion() {
		t.Fatal("not a slowdown scenario")
	}
}

func TestEstimateEpochPartialOverlap(t *testing.T) {
	// Compute 2s, I/O 8s: Eq. 2b async = max(2, 8-2) + overhead = 6 + ov.
	e := seedEstimator(2*time.Second, 1e9, 4e9, 64)
	est, ok := e.EstimateEpoch(8e9, 64)
	if !ok {
		t.Fatal("not ready")
	}
	wantOv := 8e9 / (4e9 * 64)
	if math.Abs(est.Async.Seconds()-(6+wantOv)) > 0.3 {
		t.Fatalf("Async = %v, want ~%vs", est.Async, 6+wantOv)
	}
	if math.Abs(est.Sync.Seconds()-10) > 0.3 {
		t.Fatalf("Sync = %v, want ~10s", est.Sync)
	}
	if est.Better() != trace.Async {
		t.Fatal("async still wins under partial overlap here")
	}
}

func TestEstimateEpochSlowdownScenario(t *testing.T) {
	// Fig. 1c: compute shorter than the transactional overhead. Slow
	// overhead rate (0.001 GB/s/rank × 1 rank), tiny compute.
	e := seedEstimator(time.Millisecond, 1e9, 1e6, 1)
	est, ok := e.EstimateEpoch(1e9, 1)
	if !ok {
		t.Fatal("not ready")
	}
	if !est.SlowdownRegion() {
		t.Fatalf("SlowdownRegion = false with comp=%v overhead=%v", est.Comp, est.Overhead)
	}
	if est.Better() != trace.Sync {
		t.Fatalf("sync should win: sync=%v async=%v", est.Sync, est.Async)
	}
}

func TestEstimatorR2OnCleanData(t *testing.T) {
	// Cross-scale history (the paper's setting): sync rate saturates
	// log-like with ranks, async staging rate grows linearly.
	e := NewEstimator()
	perRank := []int64{16 << 20, 32 << 20, 64 << 20} // decouple size from ranks
	i := 0
	for n := 16; n <= 4096; n *= 2 {
		bytes := int64(n) * perRank[i%len(perRank)]
		i++
		syncRate := 3e9 + 1.2e9*math.Log(float64(n))
		asyncRate := 2e9 * float64(n)
		e.ObserveComp(30 * time.Second)
		e.ObserveSyncIO(bytes, n, time.Duration(float64(bytes)/syncRate*float64(time.Second)))
		e.ObserveOverhead(bytes, n, time.Duration(float64(bytes)/asyncRate*float64(time.Second)))
	}
	sm, ok := e.SyncModel()
	if !ok {
		t.Fatal("no sync model")
	}
	am, ok := e.AsyncModel()
	if !ok {
		t.Fatal("no async model")
	}
	// The paper reports r² ≥ 80% (sync) and ≥ 90% (async); clean data
	// must clear both easily.
	if sm.Kind != FitLinearLogRanks || sm.R2() < 0.8 {
		t.Fatalf("sync model %v R2 = %v", sm.Kind, sm.R2())
	}
	if am.Kind != FitLinearSizeRanks || am.R2() < 0.9 {
		t.Fatalf("async model %v R2 = %v", am.Kind, am.R2())
	}
}

func TestSingleRunHistoryFallsBackToMeanRate(t *testing.T) {
	// Within one run every request has the same size and rank count;
	// the regression is singular and the estimator must fall back to
	// the mean observed rate rather than fail.
	e := NewEstimator()
	for i := 0; i < 5; i++ {
		e.ObserveComp(10 * time.Second)
		e.ObserveSyncIO(1e9, 64, time.Second)            // 1 GB/s
		e.ObserveOverhead(1e9, 64, 100*time.Millisecond) // 10 GB/s
	}
	est, ok := e.EstimateEpoch(1e9, 64)
	if !ok {
		t.Fatal("estimator not ready on single-run history")
	}
	sm, _ := e.SyncModel()
	if sm.Kind != FitMean {
		t.Fatalf("sync kind = %v, want FitMean", sm.Kind)
	}
	if math.Abs(est.SyncIO.Seconds()-1) > 1e-6 {
		t.Fatalf("SyncIO = %v, want 1s", est.SyncIO)
	}
	if math.Abs(est.Overhead.Seconds()-0.1) > 1e-6 {
		t.Fatalf("Overhead = %v, want 0.1s", est.Overhead)
	}
}

func TestWithFitKinds(t *testing.T) {
	e := NewEstimator(WithFitKinds(FitLinearRanks, FitLinearRanks))
	for i := 1; i <= 10; i++ {
		e.ObserveSyncIO(1<<20, i, time.Second)
	}
	m, ok := e.SyncModel()
	if !ok {
		t.Fatal("no model")
	}
	if m.Kind != FitLinearRanks {
		t.Fatalf("Kind = %v", m.Kind)
	}
}

func TestZeroDurationObservationsIgnored(t *testing.T) {
	e := NewEstimator()
	e.ObserveSyncIO(1<<20, 4, 0)
	e.ObserveOverhead(1<<20, 4, -time.Second)
	if len(e.syncHist.Snapshot()) != 0 || len(e.asyncHist.Snapshot()) != 0 {
		t.Fatal("zero/negative durations must be dropped")
	}
}

func TestEstimateApp(t *testing.T) {
	got := EstimateApp(2*time.Second, time.Second, 10*time.Second, 5)
	if got != 53*time.Second {
		t.Fatalf("EstimateApp = %v, want 53s", got)
	}
}
