package metrics

import (
	"fmt"
	"io"
	"strconv"
)

// WriteCSV renders the registry deterministically: header, then metrics
// sorted by name. Counters and gauges emit one "sample" row per series
// change point followed by a "final" row with the end-of-run value;
// gauges add a time-weighted summary ("tw_mean", "tw_max" over the full
// run, maintained even when series recording is off); histograms emit
// their summary statistics including p50/p95/p99. label tags every row
// so CSVs from several runs can be concatenated (cmd/asyncio-bench does
// this per experiment point).
//
// Schema: label,metric,kind,stat,at_seconds,value
func (r *Registry) WriteCSV(w io.Writer, label string) error {
	if _, err := fmt.Fprintln(w, "label,metric,kind,stat,at_seconds,value"); err != nil {
		return err
	}
	if r == nil {
		return nil
	}
	row := func(metric string, kind Kind, stat string, atSec, v float64) error {
		_, err := fmt.Fprintf(w, "%s,%s,%s,%s,%s,%s\n",
			label, metric, kind, stat,
			strconv.FormatFloat(atSec, 'g', -1, 64),
			strconv.FormatFloat(v, 'g', -1, 64))
		return err
	}
	final := r.now().Seconds()
	for _, name := range r.Names() {
		r.lock()
		c, g, h := r.counts[name], r.gauges[name], r.hists[name]
		r.unlock()
		switch {
		case c != nil:
			for _, s := range c.Series() {
				if err := row(name, KindCounter, "sample", s.At.Seconds(), s.V); err != nil {
					return err
				}
			}
			if err := row(name, KindCounter, "final", final, float64(c.Value())); err != nil {
				return err
			}
		case g != nil:
			for _, s := range g.Series() {
				if err := row(name, KindGauge, "sample", s.At.Seconds(), s.V); err != nil {
					return err
				}
			}
			if err := row(name, KindGauge, "final", final, g.Value()); err != nil {
				return err
			}
			mean, max := g.TimeWeightedStats(r.now())
			if err := row(name, KindGauge, "tw_mean", final, mean); err != nil {
				return err
			}
			if err := row(name, KindGauge, "tw_max", final, max); err != nil {
				return err
			}
		case h != nil:
			snap := h.Snapshot()
			stats := []struct {
				stat string
				v    float64
			}{
				{"count", float64(snap.Count)},
				{"min", snap.Min},
				{"max", snap.Max},
				{"mean", snap.Mean},
				{"p50", snap.P50},
				{"p95", snap.P95},
				{"p99", snap.P99},
			}
			for _, s := range stats {
				if err := row(name, KindHistogram, s.stat, final, s.v); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
