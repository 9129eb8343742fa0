package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Request classes of the service workloads.
const (
	classColdRun   = "cold_run"
	classColdSweep = "cold_sweep"
	classDedupe    = "dedupe"
	classLRU       = "lru"
	classArtifact  = "artifact"
	classRecovered = "recovered"
)

// svcRequest is one scripted HTTP request: POST /v1/campaigns?wait=Format
// with Spec as the body. Content identifies the experiment content the
// spec describes (equal Content + Format must serve equal bytes).
type svcRequest struct {
	Class   string
	Spec    string
	Format  string
	Content string
}

const (
	tenantA = "tenant-a"
	tenantB = "tenant-b"
)

// runCombo is one run-kind scenario shape. Summit runs take 8 nodes (48
// ranks) and Cori runs 2 (64 ranks), so a cold point costs tens of
// milliseconds on either machine and the latency distribution has no gap
// for the median to fall into.
type runCombo struct {
	Workload, System, Mode string
	Nodes                  int
}

func runCombos() []runCombo {
	var out []runCombo
	for _, w := range []string{"vpic", "bdcats", "castro"} {
		for _, sys := range []struct {
			name  string
			nodes int
		}{{"summit", 8}, {"cori", 2}} {
			for _, m := range []string{"sync", "async"} {
				out = append(out, runCombo{w, sys.name, m, sys.nodes})
			}
		}
	}
	return out
}

// idSpace is how many distinct ids there are; a process uses a few
// thousand of them, counting from zero. Ids need to be unique only within
// a process — every process has a store of its own — and they are the
// same for every seed: the daemon's cost of a bundle depends on its bytes
// in detail (bytes allocated for equal-sized bundles differ by up to 2×),
// so seeded ids would make the work of a run depend on the seed.
const idSpace = 50_000

// runSpec renders a run spec made unique by its compute phase: 300 s plus
// up to 50 s in steps of a millisecond. That changes how long the ranks
// sleep in virtual time and nothing about the work the simulator does;
// and because every compute phase has the same number of digits, as have
// the timestamps that follow from it, the exported bytes of a shape are
// the same size for every id.
func runSpec(c runCombo, tenant string, id int64) svcRequest {
	compute := fmt.Sprintf("%.3f", 300+float64(id%idSpace)*0.001)
	return svcRequest{
		Spec: fmt.Sprintf(`{"kind":"run","tenant":%q,"workload":%q,"system":%q,"nodes":%d,"mode":%q,"steps":4,"compute_seconds":%s}`,
			tenant, c.Workload, c.System, c.Nodes, c.Mode, compute),
		Content: fmt.Sprintf("run/%s/%s/%s/%s", c.Workload, c.System, c.Mode, compute),
	}
}

// sweepSpec renders a reduced-scale sweep made unique by a faults seed: a
// schedule with a seed and no fault entries injects nothing, but it is
// part of the content hash.
func sweepSpec(fig, tenant string, id int64) svcRequest {
	return svcRequest{
		Spec:    fmt.Sprintf(`{"kind":"sweep","tenant":%q,"sweep":%q,"faults":"seed=%d"}`, tenant, fig, id),
		Content: fmt.Sprintf("sweep/%s/%d", fig, id),
	}
}

func (r svcRequest) with(class, format string) svcRequest {
	r.Class, r.Format = class, format
	return r
}

// Formats a cold run is fetched in, and the sweeps that ride along.
var (
	coldFormats = []string{"bundle", "perfetto", "metrics", "trace"}
	// One figure for every sweep: the tail percentile of a repetition then
	// falls inside the sweep class and not between two classes.
	coldSweeps = []string{"fig4b", "fig4b", "fig4b", "fig4b"}
)

// coldScript is one repetition of serve_cold: every run shape in every
// format twice (96 never-seen runs), in seeded order, with a never-seen
// sweep after every 24th run. The multiset is the same for every seed and
// every repetition; next hands out ids that never repeat in the process.
func coldScript(seed int64, rep int, next func() int64) []svcRequest {
	type shaped struct {
		combo  runCombo
		format string
	}
	var runs []shaped
	for twice := 0; twice < 2; twice++ {
		for _, c := range runCombos() {
			for _, f := range coldFormats {
				runs = append(runs, shaped{c, f})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed*1000 + int64(rep)))
	rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
	tenants := []string{tenantA, tenantB}
	every := len(runs) / len(coldSweeps)
	var out []svcRequest
	for i, r := range runs {
		out = append(out, runSpec(r.combo, tenants[len(out)%2], next()).with(classColdRun, r.format))
		if (i+1)%every == 0 {
			out = append(out, sweepSpec(coldSweeps[i/every], tenants[len(out)%2], next()).with(classColdSweep, "table"))
		}
	}
	return out
}

// Pool shape of serve_warm.
var (
	warmSweepFigs   = []string{"fig3a", "fig4a", "fig4c", "fig5", "fig6"}
	warmRunsPerCmb  = 5
	sweepFormats    = []string{"table", "json", "csv"}
	artifactFormats = []string{"summary", "trace", "metrics", "perfetto", "critpath"}
)

// Request counts of one serve_warm repetition before the restart.
const (
	warmDedupe   = 4000
	warmLRU      = 400
	warmArtifact = 400
)

// warmPool is the known content of serve_warm: five sweep figures under
// two faults seeds (80 point keys) and sixty runs, against a point LRU of
// 64 entries.
type warmPool struct {
	Sweeps []svcRequest
	Runs   []svcRequest
}

func newWarmPool() warmPool {
	var p warmPool
	for i, fig := range warmSweepFigs {
		for s := 0; s < 2; s++ {
			p.Sweeps = append(p.Sweeps, sweepSpec(fig, tenantA, int64(2*i+s)))
		}
	}
	for _, c := range runCombos() {
		for i := 0; i < warmRunsPerCmb; i++ {
			p.Runs = append(p.Runs, runSpec(c, tenantA, int64(len(p.Runs))))
		}
	}
	return p
}

// all lists every pool content once, in its default format: the
// population order, and the `recovered` pass after each restart.
func (p warmPool) all(class string) []svcRequest {
	var out []svcRequest
	for _, r := range p.Sweeps {
		out = append(out, r.with(class, "table"))
	}
	for _, r := range p.Runs {
		out = append(out, r.with(class, "summary"))
	}
	return out
}

// withTenant re-renders a pool request under another tenant: the same
// content, a different campaign.
func withTenant(r svcRequest, tenant string) svcRequest {
	// Pool specs are rendered with tenantA; swap the one quoted name.
	r.Spec = strings.Replace(r.Spec, fmt.Sprintf("%q", tenantA), fmt.Sprintf("%q", tenant), 1)
	return r
}

// warmScript is the part of a serve_warm repetition before the restart:
// 4,000 dedupe requests (same tenant and content as an existing sweep
// campaign, in table/json/csv), 400 lru requests (known content under a
// never-seen tenant, so the points come from the LRU or fall back to the
// store) and 400 artifact requests (one artifact of a known run). Every
// repetition ends in a restart, so a tenant name is never-seen again at
// the start of the next one and the script repeats unchanged.
func warmScript(p warmPool, seed int64) []svcRequest {
	return warmScriptOf(p, seed, warmDedupe, warmLRU, warmArtifact)
}

// warmScriptOf is warmScript with the class counts given; the traced
// pass replays a short one against a small pool.
//
// The seed decides only how the three classes interleave. Within a class
// the requests follow a fixed order, because the order of the lru
// requests decides which of them hit the LRU: every other one asks for
// one of a few hot contents, which therefore stay resident, and the ones
// between cycle through the rest of the pool, whose reuse distance is
// longer than the LRU, so they always fall back to the store. Half hits,
// half store reads, for every seed.
func warmScriptOf(p warmPool, seed int64, dedupe, lru, artifact int) []svcRequest {
	known := p.all(classLRU)
	hotSweeps, hotRuns := max(1, len(p.Sweeps)/5), max(1, len(p.Runs)/30)
	var hot, cold []svcRequest
	for i, r := range known {
		if i < hotSweeps || (i >= len(p.Sweeps) && i < len(p.Sweeps)+hotRuns) {
			hot = append(hot, r)
		} else {
			cold = append(cold, r)
		}
	}
	next := map[string]func(i int) svcRequest{
		classDedupe: func(i int) svcRequest {
			return p.Sweeps[i%len(p.Sweeps)].with(classDedupe, sweepFormats[(i/len(p.Sweeps))%len(sweepFormats)])
		},
		classLRU: func(i int) svcRequest {
			r := hot[(i/2)%len(hot)]
			if i%2 == 1 {
				r = cold[(i/2)%len(cold)]
			}
			return withTenant(r, fmt.Sprintf("fresh-%04d", i))
		},
		classArtifact: func(i int) svcRequest {
			return p.Runs[i%len(p.Runs)].with(classArtifact, artifactFormats[(i/len(p.Runs))%len(artifactFormats)])
		},
	}
	var classes []string
	for class, n := range map[string]int{classDedupe: dedupe, classLRU: lru, classArtifact: artifact} {
		for i := 0; i < n; i++ {
			classes = append(classes, class)
		}
	}
	sort.Strings(classes)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	out := make([]svcRequest, len(classes))
	count := make(map[string]int)
	for i, class := range classes {
		out[i] = next[class](count[class])
		count[class]++
	}
	return out
}
