// Package memsys models node-local memory systems: DRAM copy bandwidth,
// the CPU↔GPU link, and node-local SSDs. These supply the transactional-
// overhead costs of the paper's model (§III-B1): an asynchronous write
// first copies the application buffer to a private staging buffer, and
// that copy's cost is what asynchronous I/O pays per epoch.
//
// Each Node owns processor-sharing servers, so the paper's observation
// that "the aggregate asynchronous bandwidth scales linearly with nodes
// because the per-node copy bandwidth is constant" falls out naturally:
// ranks on one node share that node's DRAM bandwidth, ranks on different
// nodes do not contend.
package memsys

import (
	"fmt"
	"time"

	"asyncio/internal/flow"
	"asyncio/internal/vclock"
)

// NodeConfig describes one compute node's memory system.
type NodeConfig struct {
	// MemcpyPeak is the aggregate DRAM copy bandwidth (bytes/s) the
	// node's ranks share.
	MemcpyPeak float64
	// MemcpyRamp controls the small-copy penalty: a copy of b bytes
	// achieves efficiency b/(b+MemcpyRamp). The paper measured memcpy
	// bandwidth constant above 32 MB; a ramp of ~1 MB reproduces that
	// knee.
	MemcpyRamp int64
	// GPULinkPeak is the CPU↔GPU link bandwidth in bytes/s (NVLink 2.0:
	// 50 GB/s; PCIe 3.0 x16: 15.75 GB/s). Zero means no GPUs.
	GPULinkPeak float64
	// GPUPinnedSetup / GPUUnpinnedSetup are the DMA setup latencies per
	// transfer. Unpinned memory pays an extra staging copy, captured by
	// GPUUnpinnedFactor (fraction of link bandwidth achieved).
	GPUPinnedSetup    time.Duration
	GPUUnpinnedSetup  time.Duration
	GPUUnpinnedFactor float64
	// SSDWritePeak is the node-local SSD's write bandwidth (bytes/s).
	// Zero means no node-local SSD. Nothing reads the SSD back, so its
	// read side is not modelled.
	SSDWritePeak float64
}

// Node is one compute node's memory system.
type Node struct {
	cfg      NodeConfig
	mem      *flow.Server
	gpu      *flow.Server
	ssdWrite *flow.Server
}

// NewNode builds a node on clk.
func NewNode(clk *vclock.Clock, cfg NodeConfig) *Node {
	if cfg.MemcpyPeak <= 0 {
		panic(fmt.Sprintf("memsys: MemcpyPeak %v must be positive", cfg.MemcpyPeak))
	}
	n := &Node{cfg: cfg, mem: flow.NewServer(clk, flow.ConstCapacity(cfg.MemcpyPeak))}
	if cfg.GPULinkPeak > 0 {
		n.gpu = flow.NewServer(clk, flow.ConstCapacity(cfg.GPULinkPeak))
	}
	if cfg.SSDWritePeak > 0 {
		n.ssdWrite = flow.NewServer(clk, flow.ConstCapacity(cfg.SSDWritePeak))
	}
	return n
}

// memcpyEff is the efficiency of a copy of b bytes.
func (n *Node) memcpyEff(b int64) float64 {
	if n.cfg.MemcpyRamp <= 0 || b <= 0 {
		return 1
	}
	return float64(b) / float64(b+n.cfg.MemcpyRamp)
}

// Memcpy charges a DRAM-to-DRAM copy of b bytes, sharing the node's copy
// bandwidth with concurrent local copies. It returns the elapsed virtual
// time.
func (n *Node) Memcpy(p *vclock.Proc, b int64) time.Duration {
	if b <= 0 {
		return 0
	}
	served := int64(float64(b) / n.memcpyEff(b))
	return n.mem.Transfer(p, served)
}

// MemcpyBandwidth returns the modelled single-flow copy bandwidth
// (bytes/s) for a copy of b bytes — the quantity the paper's memcpy
// micro-benchmark measures.
func (n *Node) MemcpyBandwidth(b int64) float64 {
	return n.cfg.MemcpyPeak * n.memcpyEff(b)
}

// GPUTransfer charges a CPU↔GPU transfer of b bytes. Pinned host memory
// reaches the link's peak after a short DMA setup; unpinned memory pays
// a longer setup plus a staging-copy penalty. Panics if the node has no
// GPU configured.
func (n *Node) GPUTransfer(p *vclock.Proc, b int64, pinned bool) time.Duration {
	if n.gpu == nil {
		panic("memsys: GPUTransfer on node without GPUs")
	}
	if b <= 0 {
		return 0
	}
	start := p.Now()
	served := b
	if pinned {
		p.Sleep(n.cfg.GPUPinnedSetup)
	} else {
		p.Sleep(n.cfg.GPUUnpinnedSetup)
		f := n.cfg.GPUUnpinnedFactor
		if f <= 0 || f > 1 {
			f = 1
		}
		served = int64(float64(b) / f)
	}
	n.gpu.Transfer(p, served)
	return p.Now() - start
}

// GPUBandwidth returns the modelled effective bandwidth (bytes/s) of one
// isolated transfer of b bytes — what the paper's GPU micro-benchmark
// reports, including setup amortization.
func (n *Node) GPUBandwidth(b int64, pinned bool) float64 {
	if n.gpu == nil || b <= 0 {
		return 0
	}
	var setup time.Duration
	rate := n.cfg.GPULinkPeak
	if pinned {
		setup = n.cfg.GPUPinnedSetup
	} else {
		setup = n.cfg.GPUUnpinnedSetup
		if f := n.cfg.GPUUnpinnedFactor; f > 0 && f <= 1 {
			rate *= f
		}
	}
	t := setup.Seconds() + float64(b)/rate
	return float64(b) / t
}

// SSDWrite charges a write of b bytes to the node-local SSD.
func (n *Node) SSDWrite(p *vclock.Proc, b int64) time.Duration {
	if n.ssdWrite == nil {
		panic("memsys: SSDWrite on node without SSD")
	}
	return n.ssdWrite.Transfer(p, b)
}

// Machine is a set of identical nodes with a fixed rank-to-node mapping
// (block distribution: ranks r*k..r*k+k-1 on node r, matching how MPI
// launchers place consecutive ranks).
type Machine struct {
	nodes        []*Node
	ranksPerNode int
}

// NewMachine builds nodes identical nodes.
func NewMachine(clk *vclock.Clock, nodes, ranksPerNode int, cfg NodeConfig) *Machine {
	if nodes <= 0 || ranksPerNode <= 0 {
		panic(fmt.Sprintf("memsys: invalid machine %d nodes × %d ranks", nodes, ranksPerNode))
	}
	m := &Machine{ranksPerNode: ranksPerNode}
	for i := 0; i < nodes; i++ {
		m.nodes = append(m.nodes, NewNode(clk, cfg))
	}
	return m
}

// NodeOf returns the node hosting the given rank.
func (m *Machine) NodeOf(rank int) *Node {
	idx := rank / m.ranksPerNode
	if idx < 0 || idx >= len(m.nodes) {
		panic(fmt.Sprintf("memsys: rank %d outside machine (%d nodes × %d)",
			rank, len(m.nodes), m.ranksPerNode))
	}
	return m.nodes[idx]
}

// NumNodes returns the node count.
func (m *Machine) NumNodes() int { return len(m.nodes) }

// Size returns the total rank capacity.
func (m *Machine) Size() int { return len(m.nodes) * m.ranksPerNode }
