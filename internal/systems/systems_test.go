package systems

import (
	"testing"
	"time"

	"asyncio/internal/memsys"
	"asyncio/internal/pfs"
	"asyncio/internal/vclock"
)

func TestSummitShape(t *testing.T) {
	clk := vclock.New()
	s := Summit(clk, 128)
	if s.Name != "summit" || s.RanksPerNode != 6 {
		t.Fatalf("identity wrong: %s %d", s.Name, s.RanksPerNode)
	}
	if s.Size() != 768 || s.Nodes() != 128 {
		t.Fatalf("size = %d nodes = %d", s.Size(), s.Nodes())
	}
	if s.PFS.Name() != "gpfs" {
		t.Fatalf("pfs = %s", s.PFS.Name())
	}
	if s.BurstBuffer != nil {
		t.Fatal("Summit should not expose a burst buffer tier")
	}
	if !hasGPU(s.NodeOf(0)) || !hasSSD(s.NodeOf(0)) {
		t.Fatal("Summit nodes must have GPUs and node-local SSDs")
	}
}

// hasGPU and hasSSD read a node's shape from what it will do: a node
// without GPUs models no GPU bandwidth, and one without an SSD panics on
// an SSD write.
func hasGPU(n *memsys.Node) bool { return n.GPUBandwidth(1<<20, true) > 0 }

func hasSSD(n *memsys.Node) (ok bool) {
	defer func() { ok = recover() == nil }()
	n.SSDWrite(nil, 0)
	return true
}

func TestCoriShape(t *testing.T) {
	clk := vclock.New()
	s := CoriHaswell(clk, 32)
	if s.Name != "cori-haswell" || s.RanksPerNode != 32 {
		t.Fatalf("identity wrong: %s %d", s.Name, s.RanksPerNode)
	}
	if s.Size() != 1024 {
		t.Fatalf("size = %d", s.Size())
	}
	if s.PFS.Name() != "lustre" {
		t.Fatalf("pfs = %s", s.PFS.Name())
	}
	if s.BurstBuffer == nil {
		t.Fatal("Cori must expose its burst buffer")
	}
	if hasGPU(s.NodeOf(0)) || hasSSD(s.NodeOf(0)) {
		t.Fatal("Haswell nodes have neither GPUs nor node-local SSDs")
	}
}

func TestAllocationBounds(t *testing.T) {
	for name, fn := range map[string]func(){
		"summit zero": func() { Summit(vclock.New(), 0) },
		"summit over": func() { Summit(vclock.New(), 4609) },
		"cori zero":   func() { CoriHaswell(vclock.New(), 0) },
		"cori over":   func() { CoriHaswell(vclock.New(), 2389) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestContentionOptionApplies(t *testing.T) {
	clk := vclock.New()
	plain := Summit(clk, 1)
	if plain.PFS.ContentionFactor() != 1 {
		t.Fatalf("uncontended factor = %v", plain.PFS.ContentionFactor())
	}
	contended := Summit(vclock.New(), 1, WithContention(7, 3))
	want := pfs.ContentionForDay(7, 3)
	if got := contended.PFS.ContentionFactor(); got != want {
		t.Fatalf("factor = %v, want %v", got, want)
	}
}

func TestVPICKneeAt128Nodes(t *testing.T) {
	// The §V-A1 calibration: the synchronous VPIC weak-scaling knee
	// (n·perFlow crossing the backend) sits at 768 ranks on Summit and
	// ~1024 ranks on Cori.
	summit := Summit(vclock.New(), 1).PFS.Config()
	if knee := summit.BackendPeak / summit.PerFlowBW; knee < 700 || knee > 830 {
		t.Fatalf("Summit knee at %.0f ranks, want ~768", knee)
	}
	cori := CoriHaswell(vclock.New(), 1).PFS.Config()
	if knee := cori.BackendPeak / cori.PerFlowBW; knee < 900 || knee > 1100 {
		t.Fatalf("Cori knee at %.0f ranks, want ~1008", knee)
	}
}

func TestCopyModels(t *testing.T) {
	clk := vclock.New()
	s := Summit(clk, 1)
	var dram, gpu, ssd time.Duration
	clk.Go("x", func(p *vclock.Proc) {
		start := p.Now()
		s.MemcpyModel(0)(p, 1<<30)
		dram = p.Now() - start
		start = p.Now()
		s.GPUCopyModel(0, true)(p, 1<<30)
		gpu = p.Now() - start
		start = p.Now()
		s.SSDStageModel(0)(p, 1<<30)
		ssd = p.Now() - start
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	if dram <= 0 || gpu <= dram || ssd <= dram {
		t.Fatalf("staging costs out of order: dram=%v gpu=%v ssd=%v", dram, gpu, ssd)
	}
	// Nil-proc calls are no-ops.
	s.MemcpyModel(0)(nil, 1<<30)
	s.GPUCopyModel(0, false)(nil, 1<<30)
	s.SSDStageModel(0)(nil, 1<<30)
}
