package main

import (
	"errors"
	"fmt"
	"io"
	"math"
)

// Verdicts of one workload × metric comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// Exit errors of -compare: the status says whether anything regressed or
// could not be resolved.
var (
	errRegressed  = errors.New("at least one metric regressed")
	errUnresolved = errors.New("no metric regressed, but at least one is unresolved: its spread is wider than its bound")
)

// side is one file's reading of a metric: the value with, where the
// workload took it over repetitions, its quartiles.
type side struct {
	value, q1, q3 float64
	n             int
}

func sideOf(m Metric) side {
	if s := m.Summary; s != nil {
		return side{value: m.Value, q1: s.Q1, q3: s.Q3, n: s.N}
	}
	return side{value: m.Value, q1: m.Value, q3: m.Value, n: 1}
}

func (s side) spread() float64 {
	if s.value == 0 {
		return 0
	}
	return (s.q3 - s.q1) / math.Abs(s.value)
}

// judge compares the change b against the base a. worse is how much b is
// worse than a as a share of a (negative when it is better). Within the
// bound is ok, beyond it regressed — unless the spread of either side is
// itself wider than the bound: then only a b whose quartiles lie wholly
// beyond a's settles it either way, and anything else is unresolved.
func judge(def *metricDef, a, b side) (verdict string, worse float64) {
	lower := def.Better == "lower"
	switch {
	case a.value == 0 && b.value == 0:
		return verdictOK, 0
	case a.value == 0:
		worse = math.Inf(1)
		if !lower {
			worse = math.Inf(-1)
		}
	case lower:
		worse = (b.value - a.value) / a.value
	default:
		worse = (a.value - b.value) / a.value
	}
	if math.Max(a.spread(), b.spread()) > def.Bound && def.Bound > 0 {
		apart := b.q1 > a.q3 // b wholly worse, for lower-is-better
		better := b.q3 < a.q1
		if !lower {
			apart, better = b.q3 < a.q1, b.q1 > a.q3
		}
		switch {
		case apart && worse > def.Bound:
			return verdictRegressed, worse
		case better:
			return verdictOK, worse
		}
		return verdictUnresolved, worse
	}
	if worse > def.Bound {
		return verdictRegressed, worse
	}
	return verdictOK, worse
}

// runCompare prints, per workload × end-to-end metric, both medians with
// their quartiles, the ratio with its base, the bound and the verdict.
func runCompare(w io.Writer, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare wants two results files, got %d arguments", len(args))
	}
	a, err := readResultsFile(args[0])
	if err != nil {
		return err
	}
	b, err := readResultsFile(args[1])
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "base   %s  commit %s  seed %d  nproc %d\n", args[0], a.Env.Commit, a.Env.Seed, a.Env.NumCPU)
	fmt.Fprintf(w, "change %s  commit %s  seed %d  nproc %d\n\n", args[1], b.Env.Commit, b.Env.Seed, b.Env.NumCPU)
	fmt.Fprintf(w, "%-12s %-22s %-6s %12s %25s %12s %25s %9s %7s  %s\n",
		"workload", "metric", "unit", "base", "[q1, q3] n", "change", "[q1, q3] n", "change/base", "bound", "verdict")

	byName := make(map[string]*WorkloadResult)
	for i := range b.Workloads {
		byName[b.Workloads[i].Name] = &b.Workloads[i]
	}
	regressed, unresolved := 0, 0
	for _, wa := range a.Workloads {
		wb := byName[wa.Name]
		if wb == nil {
			return fmt.Errorf("%s has no workload %s", args[1], wa.Name)
		}
		parallelInvalid := !findWorkload(wa.Name).Sim && !(a.Env.ParallelValid && b.Env.ParallelValid)
		for _, def := range append(append([]metricDef(nil), endToEndDefs...), fileOnlyDefs...) {
			ma, okA := wa.Metrics[def.Name]
			mb, okB := wb.Metrics[def.Name]
			if !okA && !okB {
				continue // recover_s on a workload without a restart
			}
			if okA != okB {
				return fmt.Errorf("%s %s is in one file only", wa.Name, def.Name)
			}
			sa, sb := sideOf(ma), sideOf(mb)
			verdict, _ := judge(&def, sa, sb)
			if parallelInvalid && verdict == verdictOK {
				verdict = verdictUnresolved + " (1 CPU)"
			}
			switch verdict {
			case verdictRegressed:
				regressed++
			case verdictOK:
			default:
				unresolved++
			}
			ratio := math.NaN()
			if sa.value != 0 {
				ratio = sb.value / sa.value
			}
			fmt.Fprintf(w, "%-12s %-22s %-6s %12.6g %25s %12.6g %25s %9.4f %6.0f%%  %s\n",
				wa.Name, def.Name, def.Unit, sa.value, quartiles(sa), sb.value, quartiles(sb), ratio, 100*def.Bound, verdict)
		}
	}
	fmt.Fprintf(w, "\n%d regressed, %d unresolved\n", regressed, unresolved)
	switch {
	case regressed > 0:
		return errRegressed
	case unresolved > 0:
		return errUnresolved
	}
	return nil
}

func quartiles(s side) string {
	if s.n <= 1 {
		return "n 1"
	}
	return fmt.Sprintf("[%.5g, %.5g] %d", s.q1, s.q3, s.n)
}
