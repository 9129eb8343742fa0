package experiments

import (
	"time"

	"asyncio/internal/core"
	"asyncio/internal/pfs"
	"asyncio/internal/workloads/vpicio"
)

// AblationAggregation measures what two-phase-style write aggregation
// (the ioreq pipeline's AggStage) buys back from the small-request
// penalty: a reduced VPIC-IO checkpoint where each rank's per-property
// slab is far below the stripe-efficiency knee, written synchronously
// with aggregation off and on (window = one slot per rank, so each
// property's adjacent rank slabs coalesce into one dispatch per step).
//
// The checkpoint targets a congested backend — aggregate capacity a few
// multiples of one flow's injection rate, the state of a busy shared
// scratch system — because that is the regime the penalty governs: the
// file system serves b+ramp bytes of work per b-byte request, so at 16
// KB per request the backend does ~65× the useful work. On an idle
// backend the per-flow injection cap is the bottleneck instead and
// direct parallel writes win; both columns report honestly whichever
// way it falls at the given scale.
func AblationAggregation(scale Scale, k *RunKnobs) (*Table, error) {
	nodes := scale.CoriNodes
	// Small per-rank slabs: 16 Ki particles → 64 KB per property.
	const particles = 16 << 10

	t := &Table{
		ID:     "abl-agg",
		Title:  "Ablation: collective write aggregation vs direct dispatch, small-request VPIC-IO, congested Lustre (sync)",
		XLabel: "MPI ranks", YLabel: "GB/s",
	}
	// Each (nodes, window) run builds its own congested target on its own
	// clock, so the grid fans out through RunParallel; notes are emitted
	// in node order afterwards, matching the serial sweep.
	type point struct {
		ranks, rate float64
		dispatches  int64
	}
	points := make([]point, 2*len(nodes))
	err := RunParallel(k, len(points), func(i int) error {
		n := nodes[i/2]
		window := i%2 == 1
		sys := k.newSystem("cori", n)
		target := pfs.NewTarget(sys.Clk, pfs.TargetConfig{
			Name:        "lustre-congested",
			BackendPeak: 0.3e9,
			PerFlowBW:   0.1e9,
			ReqRamp:     1 << 20,
			MetaLatency: 30 * time.Microsecond,
			OpLatency:   100 * time.Microsecond,
		})
		cfg := vpicio.Config{
			Steps:            scale.Steps,
			ParticlesPerRank: particles,
			ComputeTime:      time.Second,
			Mode:             core.ForceSync,
			Target:           target,
		}
		if window {
			cfg.AggWindow = sys.Size()
		}
		rep, _, err := vpicio.Run(sys, cfg)
		if err != nil {
			return err
		}
		points[i] = point{
			ranks:      float64(rep.Run.Ranks),
			rate:       gb(rep.Run.PeakRate()),
			dispatches: target.Stats().WriteOps,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var ranks, plain, agged []float64
	for ni := range nodes {
		direct, win := points[2*ni], points[2*ni+1]
		ranks = append(ranks, direct.ranks)
		plain = append(plain, direct.rate)
		agged = append(agged, win.rate)
		t.note("%d ranks: %d write dispatches direct, %d aggregated",
			int(direct.ranks), direct.dispatches, win.dispatches)
	}
	t.Series = []Series{
		{Name: "sync direct", X: ranks, Y: plain},
		{Name: "sync aggregated", X: ranks, Y: agged},
	}
	t.note("aggregation merges adjacent rank slabs per dataset into one request, sidestepping the b/(b+ramp) small-request efficiency loss")
	return t, nil
}
