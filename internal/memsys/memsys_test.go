package memsys

import (
	"math"
	"testing"
	"time"

	"asyncio/internal/vclock"
)

const (
	MiB = 1 << 20
	GiB = 1 << 30
)

func testConfig() NodeConfig {
	return NodeConfig{
		MemcpyPeak:        10 * GiB,
		MemcpyRamp:        1 * MiB,
		GPULinkPeak:       50 * GiB,
		GPUPinnedSetup:    10 * time.Microsecond,
		GPUUnpinnedSetup:  100 * time.Microsecond,
		GPUUnpinnedFactor: 0.5,
		SSDWritePeak:      2 * GiB,
	}
}

func TestMemcpyLargeCopyNearPeak(t *testing.T) {
	clk := vclock.New()
	n := NewNode(clk, testConfig())
	var took time.Duration
	clk.Go("x", func(p *vclock.Proc) {
		took = n.Memcpy(p, 10*GiB)
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	// 10 GiB at ~10 GiB/s, tiny ramp penalty.
	if took.Seconds() < 0.99 || took.Seconds() > 1.01 {
		t.Fatalf("10GiB copy took %vs, want ~1s", took.Seconds())
	}
}

func TestMemcpyBandwidthConstantAfter32MB(t *testing.T) {
	clk := vclock.New()
	n := NewNode(clk, testConfig())
	bw32 := n.MemcpyBandwidth(32 * MiB)
	bw256 := n.MemcpyBandwidth(256 * MiB)
	if rel := math.Abs(bw256-bw32) / bw256; rel > 0.05 {
		t.Fatalf("bandwidth not constant above 32MB: 32MB=%.3g 256MB=%.3g", bw32, bw256)
	}
	// And clearly lower for small copies.
	bw64k := n.MemcpyBandwidth(64 * 1024)
	if bw64k > 0.2*bw256 {
		t.Fatalf("small-copy bandwidth %.3g not penalized vs %.3g", bw64k, bw256)
	}
}

func TestMemcpySharedByLocalRanks(t *testing.T) {
	clk := vclock.New()
	n := NewNode(clk, testConfig())
	var end [4]time.Duration
	release := clk.Hold() // every proc exists before any runs
	for i := 0; i < 4; i++ {
		clk.Go("r", func(p *vclock.Proc) {
			n.Memcpy(p, 10*GiB)
			end[i] = p.Now()
		})
	}
	release()
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, e := range end {
		// 4 copies of 10 GiB share 10 GiB/s → ~4s each.
		if e.Seconds() < 3.9 || e.Seconds() > 4.1 {
			t.Fatalf("rank %d finished at %vs, want ~4s", i, e.Seconds())
		}
	}
}

func TestMemcpyZeroBytes(t *testing.T) {
	clk := vclock.New()
	n := NewNode(clk, testConfig())
	clk.Go("x", func(p *vclock.Proc) {
		if d := n.Memcpy(p, 0); d != 0 {
			t.Errorf("zero copy took %v", d)
		}
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestGPUPinnedFasterThanUnpinned(t *testing.T) {
	clk := vclock.New()
	n := NewNode(clk, testConfig())
	var pinned, unpinned time.Duration
	clk.Go("x", func(p *vclock.Proc) {
		pinned = n.GPUTransfer(p, 100*MiB, true)
		unpinned = n.GPUTransfer(p, 100*MiB, false)
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	if pinned >= unpinned {
		t.Fatalf("pinned %v not faster than unpinned %v", pinned, unpinned)
	}
	if unpinned < 18*time.Millisecond { // 100MiB at 25 GiB/s ≈ 3.9ms... plus factor
		t.Logf("unpinned = %v", unpinned)
	}
}

func TestGPUBandwidthAmortizesAbove10MB(t *testing.T) {
	n := NewNode(vclock.New(), testConfig())
	bwSmall := n.GPUBandwidth(64*1024, true)
	bw10M := n.GPUBandwidth(10*MiB, true)
	bwBig := n.GPUBandwidth(1*GiB, true)
	if bwSmall > 0.5*bwBig {
		t.Fatalf("64KB transfer bandwidth %.3g not dominated by setup (big %.3g)", bwSmall, bwBig)
	}
	if bw10M < 0.9*bwBig {
		t.Fatalf("10MB transfer %.3g not amortized vs %.3g", bw10M, bwBig)
	}
	// Pinned approaches the link's theoretical peak.
	if bwBig < 0.98*50*GiB {
		t.Fatalf("pinned peak %.3g below theoretical", bwBig)
	}
}

func TestGPUWithoutGPUPanics(t *testing.T) {
	cfg := testConfig()
	cfg.GPULinkPeak = 0
	n := NewNode(vclock.New(), cfg)
	if n.gpu != nil {
		t.Fatal("node without a GPU link peak has a GPU link")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("GPUTransfer without GPU did not panic")
		}
	}()
	n.GPUTransfer(nil, 1, true)
}

func TestSSDWriteRate(t *testing.T) {
	clk := vclock.New()
	n := NewNode(clk, testConfig())
	if n.ssdWrite == nil {
		t.Fatal("node has no SSD")
	}
	var w time.Duration
	clk.Go("x", func(p *vclock.Proc) {
		w = n.SSDWrite(p, 2*GiB)
	})
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(w.Seconds()-1) > 0.01 {
		t.Fatalf("ssd write %vs, want ~1s", w.Seconds())
	}
}

func TestMachineRankMapping(t *testing.T) {
	clk := vclock.New()
	m := NewMachine(clk, 4, 6, testConfig())
	if m.NumNodes() != 4 || m.ranksPerNode != 6 || m.Size() != 24 {
		t.Fatalf("machine shape wrong: %d/%d/%d", m.NumNodes(), m.ranksPerNode, m.Size())
	}
	if m.NodeOf(0) != m.NodeOf(5) {
		t.Fatal("ranks 0 and 5 on different nodes")
	}
	if m.NodeOf(5) == m.NodeOf(6) {
		t.Fatal("ranks 5 and 6 on same node")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range rank did not panic")
		}
	}()
	m.NodeOf(24)
}

func TestRanksOnDifferentNodesDoNotContend(t *testing.T) {
	clk := vclock.New()
	m := NewMachine(clk, 2, 1, testConfig())
	var end [2]time.Duration
	release := clk.Hold() // every proc exists before any runs
	for i := 0; i < 2; i++ {
		clk.Go("r", func(p *vclock.Proc) {
			m.NodeOf(i).Memcpy(p, 10*GiB)
			end[i] = p.Now()
		})
	}
	release()
	if err := clk.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, e := range end {
		if e.Seconds() > 1.05 {
			t.Fatalf("rank %d took %vs; cross-node contention should not exist", i, e.Seconds())
		}
	}
}
