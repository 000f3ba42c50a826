// Package machine composes the component models into complete systems:
// a CRAY-T3D with any number of processing elements, and the DEC Alpha
// workstation used as the memory-system comparison point in Figure 1 of
// the paper.
package machine

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/net"
	"repro/internal/shell"
	"repro/internal/sim"
	"repro/internal/tlb"
	"repro/internal/wbuf"
)

// Config parameterizes a T3D build.
type Config struct {
	PEs         int
	MemBytes    int64 // DRAM per node
	WBufEntries int

	Costs cpu.Costs
	Shell shell.Config
	Net   net.Config
	L1    cache.Config
	TLB   tlb.Config
}

// DefaultConfig returns the calibrated T3D configuration for n PEs with
// 16 MB of memory per node (the machine shipped with 16–64 MB).
func DefaultConfig(n int) Config {
	return Config{
		PEs:         n,
		MemBytes:    16 << 20,
		WBufEntries: 4,
		Costs:       cpu.DefaultCosts(),
		Shell:       shell.DefaultConfig(),
		Net:         net.DefaultConfig(n),
		L1:          cache.T3DL1Config(),
		TLB:         tlb.T3DConfig(),
	}
}

// Node is one T3D processing element.
type Node struct {
	PE    int
	CPU   *cpu.CPU
	Shell *shell.Shell
	DRAM  *mem.DRAM
	L1    *cache.Cache
	WB    *wbuf.Buffer
	TLB   *tlb.TLB
}

// T3D is a complete simulated machine.
type T3D struct {
	Eng    *sim.Engine
	Net    *net.Network
	Fabric *shell.Fabric
	Nodes  []*Node
	cfg    Config
}

// New builds and wires a T3D, panicking on an invalid configuration.
// NewChecked is the variant that reports the problem as an error.
func New(cfg Config) *T3D {
	m, err := NewChecked(cfg)
	if err != nil {
		panic(err.Error())
	}
	return m
}

// NewChecked builds and wires a T3D, rejecting invalid configurations
// (non-positive PE counts, bad or mismatched network shapes) with an
// error at construction time instead of a panic deep inside a run.
func NewChecked(cfg Config) (*T3D, error) {
	if cfg.PEs <= 0 {
		return nil, fmt.Errorf("machine: need at least one PE, got %d", cfg.PEs)
	}
	if err := cfg.Net.Validate(cfg.PEs); err != nil {
		return nil, fmt.Errorf("machine: %d PEs: %w", cfg.PEs, err)
	}
	if cfg.MemBytes <= 0 {
		return nil, fmt.Errorf("machine: need positive memory per node, got %d", cfg.MemBytes)
	}
	if ls := cfg.L1.LineSize; ls <= 0 || ls&(ls-1) != 0 || ls > cache.MaxLineSize {
		return nil, fmt.Errorf("machine: L1 line size %d bytes: need a power of two no larger than %d", ls, cache.MaxLineSize)
	}
	eng := sim.NewEngine()
	network := net.New(eng, cfg.Net)
	fabric := shell.NewFabric(eng, network, cfg.Shell)
	m := &T3D{Eng: eng, Net: network, Fabric: fabric, cfg: cfg}
	for pe := 0; pe < cfg.PEs; pe++ {
		dram := mem.New(mem.T3DNodeConfig(cfg.MemBytes))
		l1 := cache.New(cfg.L1)
		sh := fabric.AddNode(dram, l1)
		c := &cpu.CPU{
			Eng:    eng,
			PE:     pe,
			Costs:  cfg.Costs,
			L1:     l1,
			TLB:    tlb.New(cfg.TLB),
			DRAM:   dram,
			Remote: sh,
		}
		wb := wbuf.New(eng, cfg.WBufEntries, c)
		c.WB = wb
		// The annex store-conditional issues behind buffered stores.
		sh.SetDrainer(wb)
		m.Nodes = append(m.Nodes, &Node{
			PE: pe, CPU: c, Shell: sh, DRAM: dram, L1: l1, WB: wb, TLB: c.TLB,
		})
	}
	return m, nil
}

// Config returns the machine's build parameters.
func (m *T3D) Config() Config { return m.cfg }

// Spawn starts program as the thread of control on node pe.
func (m *T3D) Spawn(pe int, program func(p *sim.Proc, n *Node)) {
	n := m.Nodes[pe]
	m.Eng.Spawn(fmt.Sprintf("pe%d", pe), func(p *sim.Proc) { program(p, n) })
}

// Run spawns one thread per PE from a single program image (the Split-C
// execution model, §1.1) and runs the simulation to completion,
// returning the final time in cycles.
func (m *T3D) Run(program func(p *sim.Proc, n *Node)) sim.Time {
	for pe := range m.Nodes {
		m.Spawn(pe, program)
	}
	return m.Eng.Run()
}

// RunErr is Run with structured failure reporting: deadlock, livelock,
// and modeled hardware failures (a proc panicking with an error value,
// e.g. a *net.PartitionError on a disconnected torus) come back as
// errors instead of panics.
func (m *T3D) RunErr(program func(p *sim.Proc, n *Node)) (sim.Time, error) {
	for pe := range m.Nodes {
		m.Spawn(pe, program)
	}
	return m.Eng.RunErr()
}

// RunOn runs a program on node pe only, with the remaining nodes' memory
// systems passive — the setup of the paper's micro-benchmarks, which
// measure with a single processor active (§4.2).
func (m *T3D) RunOn(pe int, program func(p *sim.Proc, n *Node)) sim.Time {
	m.Spawn(pe, program)
	return m.Eng.Run()
}

// Workstation is the DEC Alpha 21064 workstation of Figure 1: the same
// processor core behind a different memory system — a 512 KB L2 board
// cache, 8 KB pages with a 32-entry TLB, and slower (300 ns) but
// L2-shielded main memory.
type Workstation struct {
	Eng  *sim.Engine
	CPU  *cpu.CPU
	DRAM *mem.DRAM
}

// WorkstationMem is the modeled workstation memory size.
const WorkstationMem = 64 << 20

// NewWorkstation builds the comparison machine.
func NewWorkstation() *Workstation {
	eng := sim.NewEngine()
	dram := mem.New(mem.WorkstationConfig(WorkstationMem))
	c := &cpu.CPU{
		Eng:   eng,
		Costs: cpu.DefaultCosts(),
		L1:    cache.New(cache.T3DL1Config()), // same 21064 on-chip cache
		L2:    cache.New(cache.WorkstationL2Config()),
		TLB:   tlb.New(tlb.WorkstationConfig()),
		DRAM:  dram,
	}
	c.WB = wbuf.New(eng, 4, c)
	return &Workstation{Eng: eng, CPU: c, DRAM: dram}
}

// Run executes program on the workstation and returns the final time.
func (w *Workstation) Run(program func(p *sim.Proc, c *cpu.CPU)) sim.Time {
	w.Eng.Spawn("ws", func(p *sim.Proc) { program(p, w.CPU) })
	return w.Eng.Run()
}
