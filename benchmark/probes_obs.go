package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"asyncio/internal/core"
	"asyncio/internal/critpath"
	"asyncio/internal/experiments"
	"asyncio/internal/faults"
	"asyncio/internal/metrics"
	"asyncio/internal/perfetto"
	"asyncio/internal/pfs"
	"asyncio/internal/systems"
	"asyncio/internal/trace"
	"asyncio/internal/vclock"
	"asyncio/internal/workloads/vpicio"
)

// The tax rows and the experiments rows share one point: fig3a at 32
// Summit nodes (192 ranks), which is points 4 (sync) and 5 (async) of the
// reduced sweep.
const (
	taxFigure    = "fig3a"
	taxPointSync = 4
	taxPointAsyn = 5
)

// simulatePoint meters one sweep point under the given knobs.
func simulatePoint(point int, k *experiments.RunKnobs) (cost, error) {
	return measure(func() error {
		_, err := experiments.SimulateSweepPoint(taxFigure, experiments.ReducedScale(), point, k)
		return err
	})
}

// pairWall is the host time of the sync and the async point together,
// the lower of two tries: a tax is a ratio of two short runs, and the
// lower try is the one less disturbed.
func pairWall(knobs func() *experiments.RunKnobs) (time.Duration, error) {
	best := time.Duration(0)
	for try := 0; try < 2; try++ {
		var wall time.Duration
		for _, pt := range []int{taxPointSync, taxPointAsyn} {
			c, err := simulatePoint(pt, knobs())
			if err != nil {
				return 0, err
			}
			wall += c.wall
		}
		if best == 0 || wall < best {
			best = wall
		}
	}
	return best, nil
}

// observedRun executes one instrumented run the way the daemon's run
// points do — series on, critical-path recorder attached — and returns
// what the exporters then have to write.
func observedRun() (*core.Report, *critpath.Recorder, error) {
	rec := critpath.NewRecorder()
	sys := systems.Summit(vclock.New(), 8, systems.WithCritPath(rec))
	sys.Metrics.EnableSeries()
	rep, _, err := vpicio.Run(sys, vpicio.Config{Steps: 4, ComputeTime: 30 * time.Second, Mode: core.ForceAsync})
	return rep, rec, err
}

func countSpans(spans []*trace.Span) int {
	n := 0
	for _, s := range spans {
		if s != nil {
			n += 1 + countSpans(s.Children())
		}
	}
	return n
}

// lineCounter counts the rows an exporter writes.
type lineCounter struct{ lines int }

func (w *lineCounter) Write(p []byte) (int, error) {
	w.lines += bytes.Count(p, []byte{'\n'})
	return len(p), nil
}

func observabilityProbes() []probe {
	return []probe{
		{"experiments.points", func(l *ledger) error {
			for _, pt := range []struct {
				name  string
				point int
			}{{"point_sync", taxPointSync}, {"point_async", taxPointAsyn}} {
				sp := l.tracer.Start("experiments."+pt.name, nil, 0)
				c, err := simulatePoint(pt.point, &experiments.RunKnobs{})
				sp.End()
				if err != nil {
					return err
				}
				l.put("experiments."+pt.name+".ns_per_event", "ns", c.nsPer(int(c.events)))
				l.put("experiments."+pt.name+".allocs_per_event", "count", c.allocsPer(int(c.events)))
			}
			return nil
		}},
		{"experiments.tables", func(l *ledger) error {
			// Assembly (the regression fits) and rendering of a four-size
			// sweep, from points that need no simulation.
			const n = 2000
			scale := experiments.ReducedScale()
			halves := make([]experiments.SweepPoint, 2*len(scale.SummitNodes))
			for i := range halves {
				ranks := 6 * scale.SummitNodes[i/2]
				halves[i] = experiments.SweepPoint{Ranks: ranks, Peak: 2e8 * float64(ranks) * float64(1+i%2), Est: 1.9e8 * float64(ranks)}
			}
			var table *experiments.Table
			assemble, err := measure(func() error {
				for i := 0; i < n; i++ {
					data, err := experiments.AssembleSweepPoints(taxFigure, scale, halves)
					if err != nil {
						return err
					}
					if table, err = experiments.AssembleSweep(data); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			render, err := measure(func() error {
				var buf bytes.Buffer
				for i := 0; i < n; i++ {
					buf.Reset()
					if err := table.Render(&buf); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			l.put("experiments.assemble.ms_per_table", "ms", assemble.nsPer(n)/1e6)
			l.put("experiments.render.us_per_table", "us", render.nsPer(n)/1e3)
			return nil
		}},
		{"tax", func(l *ledger) error {
			// The same point with one knob changed, over the knob-free run.
			consistency := func(spec string) func() *experiments.RunKnobs {
				return func() *experiments.RunKnobs {
					sp, err := pfs.ParseConsistency(spec)
					if err != nil {
						panic(err) // a constant spec of this file
					}
					return &experiments.RunKnobs{Consistency: sp}
				}
			}
			base, err := pairWall(func() *experiments.RunKnobs { return &experiments.RunKnobs{} })
			if err != nil {
				return err
			}
			for _, tax := range []struct {
				name  string
				knobs func() *experiments.RunKnobs
			}{
				{"critpath", func() *experiments.RunKnobs { return &experiments.RunKnobs{CritPath: true} }},
				{"consistency_posix", consistency("posix")},
				{"consistency_check", consistency("posix;check=1")},
				{"faults_retry", func() *experiments.RunKnobs {
					sp, err := faults.ParseSpec("seed=11;err=*:0.01;retries=10")
					if err != nil {
						panic(err) // a constant spec of this file
					}
					return &experiments.RunKnobs{Faults: sp}
				}},
			} {
				wall, err := pairWall(tax.knobs)
				if err != nil {
					return fmt.Errorf("%s: %w", tax.name, err)
				}
				l.put("tax."+tax.name+".wall_ratio", "ratio", wall.Seconds()/base.Seconds())
			}
			return nil
		}},
		{"metrics.instruments", func(l *ledger) error {
			const n = 1_000_000
			reg := metrics.NewRegistry(vclock.New())
			ctr, hist := reg.Counter("probe.counter"), reg.Histogram("probe.seconds")
			add, _ := measure(func() error {
				for i := 0; i < n; i++ {
					ctr.Add(1)
				}
				return nil
			})
			observe, _ := measure(func() error {
				for i := 0; i < n; i++ {
					hist.Observe(float64(i%1000) * 1e-6)
				}
				return nil
			})
			// With series on, every Add appends a sample.
			sreg := metrics.NewRegistry(vclock.New())
			sreg.EnableSeries()
			sctr := sreg.Counter("probe.counter")
			addSeries, _ := measure(func() error {
				for i := 0; i < n; i++ {
					sctr.Add(1)
				}
				return nil
			})
			l.put("metrics.counter_add.ns_per_op", "ns", add.nsPer(n))
			l.put("metrics.hist_observe.ns_per_op", "ns", observe.nsPer(n))
			l.put("metrics.counter_add_series.ns_per_op", "ns", addSeries.nsPer(n))
			return nil
		}},
		{"exporters", func(l *ledger) error {
			// What a run point of the daemon exports, from one real run.
			const rounds = 5
			rep, rec, err := observedRun()
			if err != nil {
				return err
			}
			var rows lineCounter
			csv, err := measure(func() error {
				for i := 0; i < rounds; i++ {
					if err := rep.Metrics.WriteCSV(&rows, "probe"); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			edges := len(rec.Edges())
			profile, _ := measure(func() error {
				for i := 0; i < rounds; i++ {
					rec.Profile("probe")
				}
				return nil
			})
			spans := countSpans(rep.Spans)
			pf, err := measure(func() error {
				for i := 0; i < rounds; i++ {
					if err := perfetto.WriteProfile(io.Discard, rep.Spans, rep.Metrics, rep.CritPath); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if rows.lines == 0 || edges == 0 || spans == 0 {
				return fmt.Errorf("observed run exported %d rows, %d edges, %d spans", rows.lines, edges, spans)
			}
			l.put("metrics.write_csv.ns_per_sample", "ns", csv.nsPer(rows.lines))
			l.put("critpath.profile.ns_per_edge", "ns", profile.nsPer(rounds*edges))
			l.put("perfetto.write.ns_per_span", "ns", pf.nsPer(rounds*spans))
			return nil
		}},
		{"critpath.record", func(l *ledger) error {
			const n = 300_000
			rec := critpath.NewRecorder()
			tracks := make([]string, 64)
			for i := range tracks {
				tracks[i] = fmt.Sprintf("rank%d", i)
			}
			c, _ := measure(func() error {
				for i := 0; i < n; i++ {
					at := time.Duration(i) * time.Microsecond
					rec.Record(critpath.Edge{Track: tracks[i%64], Cause: critpath.PFSTransfer, Subsystem: "pfs",
						Detail: "pfs:gpfs:write", Start: at, End: at + time.Microsecond, Bytes: probeSlab})
				}
				return nil
			})
			l.put("critpath.record.ns_per_edge", "ns", c.nsPer(n))
			return nil
		}},
		{"trace.write_csv", func(l *ledger) error {
			const n = 50_000
			recs := make([]trace.Record, n)
			for i := range recs {
				recs[i] = trace.Record{Epoch: i, Mode: trace.Async, Ranks: 768, Bytes: 768 * probeSlab,
					IOTime: 1234567 * time.Microsecond, CompTime: 30 * time.Second, DrainTime: time.Duration(i) * time.Millisecond}
			}
			c, err := measure(func() error { return trace.WriteCSV(io.Discard, recs) })
			if err != nil {
				return err
			}
			l.put("trace.write_csv.ns_per_record", "ns", c.nsPer(n))
			return nil
		}},
	}
}
