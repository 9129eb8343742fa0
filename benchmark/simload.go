package main

import (
	"bytes"
	"embed"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"asyncio/internal/experiments"
)

// expectedFS holds the pinned outputs: one rendered table per figure of
// each simulator workload, and the event count of one repetition.
// fig3a.txt and fig3b.txt are byte-for-byte the goldens under
// internal/experiments/testdata (a test compares them).
//
//go:embed expected
var expectedFS embed.FS

// simTable is one figure regenerated at one scale; its points are the
// operations of a simulator workload.
type simTable struct {
	ID       string
	Scale    experiments.Scale
	Expected string // file under expected/
}

// wideScale is the single Summit size of scale_wide: 512 nodes = 3,072
// ranks.
func wideScale() experiments.Scale {
	return experiments.Scale{SummitNodes: []int{512}, Steps: 3}
}

func simTables(workload string) []simTable {
	red := experiments.ReducedScale()
	switch workload {
	case wSweepWrite:
		return []simTable{{"fig3a", red, "fig3a.txt"}, {"fig3b", red, "fig3b.txt"}}
	case wSweepRead:
		return []simTable{{"fig3c", red, "fig3c.txt"}, {"fig3d", red, "fig3d.txt"}}
	case wScaleWide:
		return []simTable{{"fig3a", wideScale(), "wide_fig3a.txt"}, {"fig3c", wideScale(), "wide_fig3c.txt"}}
	}
	return nil
}

// simOp is one point to simulate: table t, point index i.
type simOp struct{ Table, Point int }

// simScript lists every point of every table of the workload. The set is
// fixed; the seed only orders it, so the work of a repetition is the same
// for every seed and no result can lean on one lucky order.
func simScript(tables []simTable, seed int64) ([]simOp, error) {
	var ops []simOp
	for t, tab := range tables {
		n, err := experiments.SweepPointCount(tab.ID, tab.Scale)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			ops = append(ops, simOp{t, i})
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops, nil
}

// renderTables assembles and renders each table from its points.
func renderTables(tables []simTable, points [][]experiments.SweepPoint, tr *Tracer, parent *OpenSpan) ([][]byte, error) {
	out := make([][]byte, len(tables))
	for t, tab := range tables {
		sp := tr.Start("experiments.assemble", parent, 0)
		data, err := experiments.AssembleSweepPoints(tab.ID, tab.Scale, points[t])
		if err != nil {
			return nil, err
		}
		table, err := experiments.AssembleSweep(data)
		sp.End()
		if err != nil {
			return nil, err
		}
		sp = tr.Start("experiments.render", parent, 0)
		var buf bytes.Buffer
		err = table.Render(&buf)
		sp.End()
		if err != nil {
			return nil, err
		}
		out[t] = buf.Bytes()
	}
	return out, nil
}

// simRepetition simulates every point of the script in order, renders the
// tables and returns them. Each point is one operation; the latency
// sample is the repetition's, since what a user waits for is the figures
// and a script of sixteen fixed costs has no percentiles worth the name.
func simRepetition(tables []simTable, script []simOp, tr *Tracer, s *repSample) ([][]byte, error) {
	points := make([][]experiments.SweepPoint, len(tables))
	for t, tab := range tables {
		n, _ := experiments.SweepPointCount(tab.ID, tab.Scale)
		points[t] = make([]experiments.SweepPoint, n)
	}
	root := tr.Start("repetition", nil, 0)
	defer root.End()
	for _, op := range script {
		tab := tables[op.Table]
		name := "experiments.point_sync"
		if op.Point%2 == 1 {
			name = "experiments.point_async"
		}
		sp := tr.Start(name, root, 0)
		p, err := experiments.SimulateSweepPoint(tab.ID, tab.Scale, op.Point, &experiments.RunKnobs{})
		sp.End()
		s.ops++
		if err != nil {
			s.failures = append(s.failures, fmt.Sprintf("%s point %d: %v", tab.ID, op.Point, err))
			continue
		}
		points[op.Table][op.Point] = p
	}
	if len(s.failures) > 0 {
		return nil, nil
	}
	return renderTables(tables, points, tr, root)
}

// expectedEvents reads the pinned event count of one repetition.
func expectedEvents(workload string) (int64, error) {
	b, err := expectedFS.ReadFile("expected/events.txt")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, count, ok := strings.Cut(line, " "); ok && name == workload {
			return strconv.ParseInt(strings.TrimSpace(count), 10, 64)
		}
	}
	return 0, fmt.Errorf("expected/events.txt has no line for %s", workload)
}

// runSim is a simulator workload: the fixed script repeated, each
// repetition's tables compared byte for byte with the pinned ones and its
// event count with the pinned count.
func runSim(rc *runCtx) error {
	tables := simTables(rc.def.Name)
	script, err := simScript(tables, rc.seed)
	if err != nil {
		return err
	}
	want := make([][]byte, len(tables))
	for t, tab := range tables {
		if want[t], err = expectedFS.ReadFile("expected/" + tab.Expected); err != nil {
			return err
		}
	}
	if rc.wantEvents, err = expectedEvents(rc.def.Name); err != nil {
		return err
	}
	return rc.timedReps(func(s *repSample) error {
		got, err := simRepetition(tables, script, rc.cur, s)
		if err != nil {
			return err
		}
		for t := range got {
			if !bytes.Equal(got[t], want[t]) {
				s.failures = append(s.failures, fmt.Sprintf("%s differs from expected/%s", tables[t].ID, tables[t].Expected))
			}
			s.servedBytes += int64(len(got[t]))
		}
		return nil
	})
}
