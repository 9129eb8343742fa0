package metrics

import (
	"bytes"
	"math"
	"testing"
	"time"

	"asyncio/internal/vclock"
)

func TestQuantileEdgeCases(t *testing.T) {
	if got := Quantile(nil, 0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	one := []float64{7}
	for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2} {
		if got := Quantile(one, q); got != 7 {
			t.Fatalf("single-sample q=%v = %v, want 7", q, got)
		}
	}
	// Nearest rank on a known set: rank = ceil(q*n).
	s := []float64{1, 2, 3, 4}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.25, 1}, {0.26, 2}, {0.5, 2}, {0.51, 3},
		{0.75, 3}, {0.76, 4}, {1, 4}, {-0.5, 1}, {1.5, 4},
	}
	for _, c := range cases {
		if got := Quantile(s, c.q); got != c.want {
			t.Errorf("q=%v = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestHistogramSnapshotEmptyAndSingle(t *testing.T) {
	r := NewRegistry(vclock.New())
	h := r.Histogram("h")
	if snap := h.Snapshot(); snap != (HistSnapshot{}) {
		t.Fatalf("empty snapshot = %+v, want zero", snap)
	}
	h.Observe(3.5)
	snap := h.Snapshot()
	want := HistSnapshot{Count: 1, Min: 3.5, Max: 3.5, Mean: 3.5, P50: 3.5, P95: 3.5, P99: 3.5}
	if snap != want {
		t.Fatalf("single-sample snapshot = %+v, want %+v", snap, want)
	}
}

func TestHistogramDropsNaNAndIsOrderIndependent(t *testing.T) {
	r := NewRegistry(vclock.New())
	a, b := r.Histogram("a"), r.Histogram("b")
	vals := []float64{5, 1, 3, 2, 4}
	for _, v := range vals {
		a.Observe(v)
	}
	for i := len(vals) - 1; i >= 0; i-- {
		b.Observe(vals[i])
	}
	b.Observe(math.NaN())
	if a.Count() != 5 || b.Count() != 5 {
		t.Fatalf("counts = %d, %d (NaN must be dropped)", a.Count(), b.Count())
	}
	if a.Snapshot() != b.Snapshot() {
		t.Fatalf("order changed snapshot: %+v vs %+v", a.Snapshot(), b.Snapshot())
	}
	if s := a.Snapshot(); s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.P50 != 3 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestCounterMonotone(t *testing.T) {
	r := NewRegistry(vclock.New())
	c := r.Counter("c")
	c.Add(3)
	c.Add(-5) // ignored: counters are monotone
	c.Add(0)  // ignored
	c.Add(2)
	if c.Value() != 5 {
		t.Fatalf("value = %d, want 5", c.Value())
	}
}

func TestSeriesRecordsChangePointsOnVirtualClock(t *testing.T) {
	clk := vclock.New()
	r := NewRegistry(clk)
	r.EnableSeries()
	c := r.Counter("ops")
	g := r.Gauge("depth")
	clk.Go("p", func(p *vclock.Proc) {
		c.Add(1)
		g.Add(1)
		p.Sleep(time.Second)
		c.Add(1)
		g.Add(1)
		p.Sleep(time.Second)
		g.Add(-2)
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	wantC := []Sample{{0, 1}, {time.Second, 2}}
	if got := c.Series(); len(got) != 2 || got[0] != wantC[0] || got[1] != wantC[1] {
		t.Fatalf("counter series = %v, want %v", got, wantC)
	}
	wantG := []Sample{{0, 1}, {time.Second, 2}, {2 * time.Second, 0}}
	got := g.Series()
	if len(got) != 3 {
		t.Fatalf("gauge series = %v, want %v", got, wantG)
	}
	for i := range wantG {
		if got[i] != wantG[i] {
			t.Fatalf("gauge series[%d] = %v, want %v", i, got[i], wantG[i])
		}
	}
}

func TestSeriesCoalescesSameInstant(t *testing.T) {
	clk := vclock.New()
	r := NewRegistry(clk)
	r.EnableSeries()
	g := r.Gauge("g")
	clk.Go("p", func(p *vclock.Proc) {
		// Three updates at one virtual instant must collapse to one
		// point holding the instant's final value.
		g.Add(1)
		g.Add(1)
		g.Add(-2)
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	got := g.Series()
	if len(got) != 1 || got[0] != (Sample{0, 0}) {
		t.Fatalf("series = %v, want [{0 0}]", got)
	}
}

func TestSeriesDisabledByDefault(t *testing.T) {
	r := NewRegistry(vclock.New())
	if r.SeriesEnabled() {
		t.Fatal("series enabled without EnableSeries")
	}
	c := r.Counter("c")
	c.Add(1)
	if len(c.Series()) != 0 {
		t.Fatalf("series recorded while disabled: %v", c.Series())
	}
	if c.Value() != 1 {
		t.Fatal("value must be kept even with series off")
	}
}

func TestGaugeOnChangeDerivesSecondGauge(t *testing.T) {
	clk := vclock.New()
	r := NewRegistry(clk)
	r.EnableSeries()
	src := r.Gauge("src")
	derived := r.Gauge("derived")
	src.OnChange(func(at time.Duration, v float64) { derived.Set(v * 10) })
	src.Add(2)
	src.Add(1)
	if derived.Value() != 30 {
		t.Fatalf("derived = %v, want 30", derived.Value())
	}
	got := derived.Series()
	if len(got) != 1 || got[0].V != 30 {
		t.Fatalf("derived series = %v, want one point at 30", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c, g, h := r.Counter("c"), r.Gauge("g"), r.Histogram("h")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must return nil instruments")
	}
	// Every method must be a no-op, not a panic.
	c.Add(1)
	g.Add(1)
	g.Set(2)
	g.OnChange(func(time.Duration, float64) {})
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if c.Series() != nil || g.Series() != nil {
		t.Fatal("nil instruments must have nil series")
	}
	if h.Snapshot() != (HistSnapshot{}) {
		t.Fatal("nil instrument accessors must return zero values")
	}
	r.EnableSeries()
	if r.SeriesEnabled() || r.Names() != nil {
		t.Fatal("nil registry accessors must return zero values")
	}
	if r.FindCounter("c") != nil || r.FindGauge("g") != nil || r.FindHistogram("h") != nil {
		t.Fatal("nil registry Find must return nil")
	}
}

func TestFindDoesNotCreate(t *testing.T) {
	r := NewRegistry(vclock.New())
	if r.FindCounter("x") != nil || r.FindGauge("x") != nil || r.FindHistogram("x") != nil {
		t.Fatal("Find created or found a non-existent instrument")
	}
	if len(r.Names()) != 0 {
		t.Fatalf("Find polluted the registry: %v", r.Names())
	}
	c := r.Counter("x")
	if r.FindCounter("x") != c {
		t.Fatal("FindCounter did not return the registered instrument")
	}
}

// populate drives one deterministic update sequence against r.
func populate(t *testing.T, r *Registry) {
	t.Helper()
	clk := vclock.New()
	*r = *NewRegistry(clk)
	r.EnableSeries()
	clk.Go("p", func(p *vclock.Proc) {
		r.Counter("z.ops").Add(2)
		r.Gauge("a.depth").Add(3)
		p.Sleep(500 * time.Millisecond)
		r.Gauge("a.depth").Add(-3)
		r.Histogram("m.wait").Observe(0.25)
		r.Histogram("m.wait").Observe(0.75)
		p.Sleep(time.Second)
		r.Counter("z.ops").Add(1)
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteCSVDeterministicAndSorted(t *testing.T) {
	var r1, r2 Registry
	populate(t, &r1)
	populate(t, &r2)
	var b1, b2 bytes.Buffer
	if err := r1.WriteCSV(&b1, "lbl"); err != nil {
		t.Fatal(err)
	}
	if err := r2.WriteCSV(&b2, "lbl"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("two identical runs rendered differently:\n%s\nvs\n%s", b1.String(), b2.String())
	}
	out := b1.String()
	want := "label,metric,kind,stat,at_seconds,value\n" +
		"lbl,a.depth,gauge,sample,0,3\n" +
		"lbl,a.depth,gauge,sample,0.5,0\n" +
		"lbl,a.depth,gauge,final,1.5,0\n" +
		"lbl,a.depth,gauge,tw_mean,1.5,1\n" +
		"lbl,a.depth,gauge,tw_max,1.5,3\n" +
		"lbl,m.wait,histogram,count,1.5,2\n" +
		"lbl,m.wait,histogram,min,1.5,0.25\n" +
		"lbl,m.wait,histogram,max,1.5,0.75\n" +
		"lbl,m.wait,histogram,mean,1.5,0.5\n" +
		"lbl,m.wait,histogram,p50,1.5,0.25\n" +
		"lbl,m.wait,histogram,p95,1.5,0.75\n" +
		"lbl,m.wait,histogram,p99,1.5,0.75\n" +
		"lbl,z.ops,counter,sample,0,2\n" +
		"lbl,z.ops,counter,sample,1.5,3\n" +
		"lbl,z.ops,counter,final,1.5,3\n"
	if out != want {
		t.Fatalf("CSV =\n%s\nwant\n%s", out, want)
	}
}

func TestWriteCSVNilRegistry(t *testing.T) {
	var buf bytes.Buffer
	var r *Registry
	if err := r.WriteCSV(&buf, "x"); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "label,metric,kind,stat,at_seconds,value\n" {
		t.Fatalf("nil registry CSV = %q", buf.String())
	}
}

func TestGaugeTimeWeightedStats(t *testing.T) {
	clk := vclock.New()
	r := NewRegistry(clk) // series recording off: stats must still work
	g := r.Gauge("depth")
	clk.Go("p", func(p *vclock.Proc) {
		g.Add(4)
		p.Sleep(time.Second)
		g.Add(6) // 10 held for 1s
		p.Sleep(time.Second)
		g.Add(-10) // back to 0
		p.Sleep(2 * time.Second)
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	mean, max := g.TimeWeightedStats(clk.Now())
	if want := (4.0 + 10.0) / 4.0; mean != want {
		t.Errorf("tw mean = %v, want %v", mean, want)
	}
	if max != 10 {
		t.Errorf("tw max = %v, want 10", max)
	}
	// Same-instant intermediates must not leak into the max.
	clk2 := vclock.New()
	g2 := NewRegistry(clk2).Gauge("spiky")
	clk2.Go("p", func(p *vclock.Proc) {
		g2.Add(100)
		g2.Add(-99) // net 1 at instant 0; 100 never persisted
		p.Sleep(time.Second)
	})
	if err := clk2.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, max := g2.TimeWeightedStats(clk2.Now()); max != 1 {
		t.Errorf("same-instant max = %v, want 1", max)
	}
	// Nil gauge and zero horizon are safe.
	var nilG *Gauge
	if m, mx := nilG.TimeWeightedStats(time.Second); m != 0 || mx != 0 {
		t.Errorf("nil gauge stats = %v, %v", m, mx)
	}
}
