// Package fault is a seeded, fully deterministic fault-injection
// subsystem for the simulated T3D. The paper's gray-box methodology
// assumes a perfectly reliable fabric; this package provides the
// opposite: per-packet transient faults that drop or corrupt data
// packets, permanent link and node failures, and memory bit-flip faults
// that strike DRAM words and cached lines.
//
// Everything derives from a single 64-bit seed through a splitmix64
// generator: the schedule of hard faults and memory flips is computed
// up front and per-packet decisions consume the stream in simulation
// event order, which the sim kernel makes deterministic. The same seed
// therefore reproduces the same faults — and, with a deterministic
// workload, bit-identical end-to-end cycle counts — on every run.
package fault

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/net"
	"repro/internal/sim"
)

// Stream salts. Each derived stream XORs the config seed with its own
// large odd constant so adding a stream never perturbs the draws of an
// existing one (the property the replay seeds printed by old chaos runs
// depend on).
const (
	// packetStreamSalt seeds the per-packet drop/corrupt stream.
	packetStreamSalt = 0xD1B54A32D192ED03
	// memStreamSalt seeds the memory bit-flip stream, independent of
	// both the schedule stream (raw seed) and the packet stream.
	memStreamSalt = 0x9FB21C651E98DF25
)

// Config parameterizes a fault schedule. The zero value injects nothing.
type Config struct {
	Seed uint64

	// Per-packet transient fault probabilities, evaluated for every
	// data packet.
	DropRate    float64
	CorruptRate float64

	// Horizon bounds the scheduled faults below: hard faults and memory
	// flips fire at uniform times in [0, Horizon), and the scrubber
	// ticks until it.
	Horizon sim.Time

	// Hard failures: fail-at-cycle, never recover. HardLinkFaults links
	// die permanently at uniform times in [0, Horizon); the fabric must
	// reroute around them. HardNodeFaults nodes crash fail-stop at
	// uniform times in [0, Horizon): the node's volatile memory is lost
	// and a recovery layer (splitc.Recovery) must roll the machine back
	// to its last checkpoint. Node crashes require a crash handler —
	// attaching a schedule with HardNodeFaults > 0 and no handler is
	// rejected at the first crash, because fail-stop without recovery
	// has no correct continuation.
	HardLinkFaults int
	HardNodeFaults int

	// Memory bit flips: MemFaultRate expected flips per PE per million
	// cycles of the horizon, at uniform times in [0, Horizon) on
	// uniformly chosen nodes and words. Each flip strikes the word's L1
	// copy if one is resident (a parity fault the cache detects and
	// refills from DRAM) and the DRAM word otherwise. MemMultiFrac of
	// the flips are double-bit — uncorrectable by SECDED, so a read of
	// the word returns poison instead of data. The flip stream is
	// independent of the hard-fault plan: enabling memory faults
	// replays an existing link/crash schedule unchanged.
	MemFaultRate float64
	MemMultiFrac float64
	// MemFaultWords, when positive, confines flips to a window of N words
	// in each node's memory, starting at word MemFaultBase — a dense "hot
	// working set" model used to aim flips at live data (e.g. the heap)
	// and to study single-bit faults pairing into uncorrectable ones.
	// A base at or beyond the memory wraps modulo the word count.
	MemFaultWords int64
	MemFaultBase  int64
	// MemECCOff disables the SECDED model while still injecting flips:
	// reads return raw corrupted bits with no detection, the baseline
	// arm that motivates the integrity layer.
	MemECCOff bool

	// Scrub arms the background scrubber: every ScrubInterval cycles
	// each node's DRAM sweeps one row (reading it through the ECC pipe,
	// which occupies the bank), correcting latent single-bit faults
	// before a second flip can pair them into an uncorrectable fault.
	Scrub         bool
	ScrubInterval sim.Time
}

// Validate rejects configurations that cannot form a schedule. Every
// message is "fault: <field>: <reason>" so callers can grep rejections
// by field.
func (c Config) Validate() error {
	if c.DropRate < 0 || c.DropRate > 1 || math.IsNaN(c.DropRate) {
		return fmt.Errorf("fault: DropRate: must be in [0,1], got %g", c.DropRate)
	}
	if c.CorruptRate < 0 || c.CorruptRate > 1 || math.IsNaN(c.CorruptRate) {
		return fmt.Errorf("fault: CorruptRate: must be in [0,1], got %g", c.CorruptRate)
	}
	if c.DropRate+c.CorruptRate > 1 {
		return fmt.Errorf("fault: DropRate+CorruptRate: sum %g exceeds 1", c.DropRate+c.CorruptRate)
	}
	if c.MemFaultRate < 0 || math.IsNaN(c.MemFaultRate) {
		return fmt.Errorf("fault: MemFaultRate: must be a non-negative number, got %g", c.MemFaultRate)
	}
	if c.MemMultiFrac < 0 || c.MemMultiFrac > 1 || math.IsNaN(c.MemMultiFrac) {
		return fmt.Errorf("fault: MemMultiFrac: must be in [0,1], got %g", c.MemMultiFrac)
	}
	if c.MemFaultWords < 0 {
		return fmt.Errorf("fault: MemFaultWords: must be non-negative, got %d", c.MemFaultWords)
	}
	if c.MemFaultBase < 0 {
		return fmt.Errorf("fault: MemFaultBase: must be non-negative, got %d", c.MemFaultBase)
	}
	if c.MemFaultBase > 0 && c.MemFaultWords == 0 {
		return fmt.Errorf("fault: MemFaultBase: needs MemFaultWords to bound the window, got base %d with no window", c.MemFaultBase)
	}
	if scheduled := c.HardLinkFaults > 0 || c.HardNodeFaults > 0 ||
		c.MemFaultRate > 0 || c.Scrub; scheduled && c.Horizon <= 0 {
		return fmt.Errorf("fault: Horizon: scheduled faults need a positive horizon, got %d", c.Horizon)
	}
	if c.HardLinkFaults < 0 {
		return fmt.Errorf("fault: HardLinkFaults: must be non-negative, got %d", c.HardLinkFaults)
	}
	if c.HardNodeFaults < 0 {
		return fmt.Errorf("fault: HardNodeFaults: must be non-negative, got %d", c.HardNodeFaults)
	}
	if c.Scrub && c.ScrubInterval <= 0 {
		return fmt.Errorf("fault: ScrubInterval: scrubbing needs a positive interval, got %d", c.ScrubInterval)
	}
	return nil
}

// HardLink is one permanent link failure: the link leaving Node in
// direction Dir dies at cycle At and never recovers.
type HardLink struct {
	Node, Dir int
	At        sim.Time
}

// HardNode is one permanent node failure: PE crashes fail-stop at cycle
// At, losing its volatile memory. The shell, router, and DRAM hardware
// keep functioning (on the real T3D the network logic lives in the
// shell, outboard of the CPU), so traffic still routes *through* a dead
// node — but its computation and memory contents are gone until a
// recovery layer restores them from a checkpoint.
type HardNode struct {
	PE int
	At sim.Time
}

// MemFlip is one memory bit-flip fault: at time At, the word selected
// by WordDraw on node PE has Bit (and, for a double-bit fault, Bit2)
// inverted. WordDraw is a raw 64-bit draw scaled to the node's word
// count when the flip fires, so one schedule serves machines of any
// memory size. Bit2 is -1 for single-bit flips.
type MemFlip struct {
	PE       int
	At       sim.Time
	WordDraw uint64
	Bit      int
	Bit2     int
}

// Schedule is a replayable fault plan: everything below is a pure
// function of (Config, node count), so equal seeds give equal schedules.
type Schedule struct {
	Cfg       Config
	Nodes     int
	HardLinks []HardLink
	HardNodes []HardNode
	MemFlips  []MemFlip
}

// numDirs mirrors the torus fabric's six outgoing links per node.
const numDirs = 6

// NewSchedule derives the deterministic fault plan for a machine of the
// given node count. It panics on an invalid config; callers wanting an
// error should Validate first.
func NewSchedule(cfg Config, nodes int) *Schedule {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if nodes <= 0 {
		panic(fmt.Sprintf("fault: node count must be positive, got %d", nodes))
	}
	r := Rand{State: cfg.Seed}
	s := &Schedule{Cfg: cfg, Nodes: nodes}
	for i := 0; i < cfg.HardLinkFaults; i++ {
		s.HardLinks = append(s.HardLinks, HardLink{
			Node: r.Intn(nodes),
			Dir:  r.Intn(numDirs),
			At:   sim.Time(r.Next() % uint64(cfg.Horizon)),
		})
	}
	sort.Slice(s.HardLinks, func(i, j int) bool { return s.HardLinks[i].At < s.HardLinks[j].At })
	for i := 0; i < cfg.HardNodeFaults; i++ {
		s.HardNodes = append(s.HardNodes, HardNode{
			PE: r.Intn(nodes),
			At: sim.Time(r.Next() % uint64(cfg.Horizon)),
		})
	}
	sort.Slice(s.HardNodes, func(i, j int) bool { return s.HardNodes[i].At < s.HardNodes[j].At })
	// Memory flips draw from their own salted stream (not merely after
	// the others on the same stream) so the flip plan is also a pure
	// function of the seed alone — changing the hard faults never moves
	// a memory flip.
	if cfg.MemFaultRate > 0 {
		mr := Rand{State: cfg.Seed ^ memStreamSalt}
		count := int(MemFlipCount(cfg, nodes))
		for i := 0; i < count; i++ {
			f := MemFlip{
				PE:       mr.Intn(nodes),
				At:       sim.Time(mr.Next() % uint64(cfg.Horizon)),
				WordDraw: mr.Next(),
				Bit:      mr.Intn(64),
				Bit2:     -1,
			}
			if mr.Float() < cfg.MemMultiFrac {
				// The second bit is drawn to never collide with the
				// first: a "double" flip on one bit would be a single.
				f.Bit2 = (f.Bit + 1 + mr.Intn(63)) % 64
			}
			s.MemFlips = append(s.MemFlips, f)
		}
		sort.Slice(s.MemFlips, func(i, j int) bool { return s.MemFlips[i].At < s.MemFlips[j].At })
	}
	return s
}

// MemFlipCount is how many memory flips NewSchedule plans for cfg on a
// machine of the given node count: MemFaultRate per PE per million
// cycles of the horizon, rounded to the nearest whole flip. Each flip
// is held in the schedule from the start, so callers that take the
// rate from outside bound this before building one.
func MemFlipCount(cfg Config, nodes int) float64 {
	return math.Floor(cfg.MemFaultRate*float64(cfg.Horizon)*float64(nodes)/1e6 + 0.5)
}

// Injector evaluates a schedule against live traffic. It implements
// net.FaultHook for the per-packet faults; Attach wires it (and the
// crash, flip, and scrub events) into a machine.
type Injector struct {
	sched *Schedule
	r     Rand // per-packet stream, consumed in deterministic event order

	// OnNodeCrash is invoked when a scheduled node hard-fault fires,
	// with the dead PE's number. A recovery layer (splitc.Recovery sets
	// this to its CrashNode method) zeroes the node's volatile memory
	// and initiates rollback. It MUST be set before any HardNode event
	// fires: a crash with no handler panics, because fail-stop without
	// recovery has no correct continuation.
	OnNodeCrash func(pe int)

	// scrubCursor tracks each node's sweep position (byte offset).
	scrubCursor []int64

	// Stats.
	Drops, Corrupts            int64
	HardLinkFails, NodeCrashes int64
	MemFlips, CacheFlips       int64
	Scrubbed, ScrubTicks       int64
}

// NewInjector builds an injector for the schedule. The per-packet
// stream is seeded from the schedule seed so the whole run replays from
// one number.
func NewInjector(s *Schedule) *Injector {
	return &Injector{sched: s, r: Rand{State: s.Cfg.Seed ^ packetStreamSalt}}
}

// PacketFault implements net.FaultHook: one draw of the per-packet
// stream decides the packet's fate from the transient rates.
func (in *Injector) PacketFault(src, dst, payloadBytes int) net.Fault {
	cfg := in.sched.Cfg
	if cfg.DropRate > 0 || cfg.CorruptRate > 0 {
		u := in.r.Float()
		if u < cfg.DropRate {
			return in.count(net.FaultDrop)
		}
		if u < cfg.DropRate+cfg.CorruptRate {
			return in.count(net.FaultCorrupt)
		}
	}
	return net.FaultNone
}

func (in *Injector) count(f net.Fault) net.Fault {
	switch f {
	case net.FaultDrop:
		in.Drops++
	case net.FaultCorrupt:
		in.Corrupts++
	}
	return f
}

// Attach installs the injector on a machine: the packet hook on the
// fabric and one engine event per scheduled hard fault, memory flip,
// and scrub tick. Call before the simulation runs.
func (in *Injector) Attach(m *machine.T3D) {
	m.Net.SetFaultHook(in)
	for _, hl := range in.sched.HardLinks {
		hl := hl
		m.Eng.At(hl.At, func() {
			m.Net.FailLink(hl.Node, hl.Dir)
			in.HardLinkFails++
		})
	}
	for _, hn := range in.sched.HardNodes {
		hn := hn
		m.Eng.At(hn.At, func() {
			in.NodeCrashes++
			if in.OnNodeCrash == nil {
				panic(fmt.Sprintf("fault: node %d hard-faulted at t=%d with no crash handler installed (set Injector.OnNodeCrash)", hn.PE, hn.At))
			}
			in.OnNodeCrash(hn.PE)
		})
	}
	in.attachMemory(m)
}

// attachMemory wires the memory-integrity side: ECC arming, flip
// events, and the background scrubber.
func (in *Injector) attachMemory(m *machine.T3D) {
	cfg := in.sched.Cfg
	if len(in.sched.MemFlips) == 0 && !cfg.Scrub {
		return
	}
	// Memory faults or scrubbing arm the SECDED model machine-wide
	// (unless the config runs the raw-DRAM baseline).
	for _, n := range m.Nodes {
		n.DRAM.SetECC(!cfg.MemECCOff)
	}
	for _, mf := range in.sched.MemFlips {
		mf := mf
		m.Eng.At(mf.At, func() {
			node := m.Nodes[mf.PE]
			total := uint64(node.DRAM.Size() / 8)
			base := uint64(cfg.MemFaultBase) % total
			words := total - base
			if cfg.MemFaultWords > 0 && uint64(cfg.MemFaultWords) < words {
				words = uint64(cfg.MemFaultWords)
			}
			addr := int64(base+mf.WordDraw%words) * 8
			mask := uint64(1) << uint(mf.Bit)
			if mf.Bit2 >= 0 {
				mask |= uint64(1) << uint(mf.Bit2)
			}
			// A flip strikes wherever the word currently lives: the L1
			// copy when resident (parity territory — the cache detects
			// on the next hit and refills from DRAM, which still holds
			// truth because the L1 is write-through), else the DRAM
			// word itself (SECDED territory).
			if node.L1.FlipBits(addr, mask) {
				in.CacheFlips++
			} else {
				node.DRAM.InjectFlip(addr, mask)
				in.MemFlips++
			}
		})
	}
	if cfg.Scrub && cfg.ScrubInterval > 0 {
		in.scrubCursor = make([]int64, len(m.Nodes))
		for t := cfg.ScrubInterval; t <= cfg.Horizon; t += cfg.ScrubInterval {
			m.Eng.At(t, func() {
				for pe, n := range m.Nodes {
					stripe := n.DRAM.Config().RowSize
					cur := in.scrubCursor[pe] % n.DRAM.Size()
					// The sweep reads the row through the ECC pipe:
					// the bank is genuinely occupied for the access,
					// which is the scrubber's whole timing cost.
					n.DRAM.ReadAccess(m.Eng.Now(), cur)
					in.Scrubbed += int64(n.DRAM.ScrubRange(cur, stripe))
					in.scrubCursor[pe] = (cur + stripe) % n.DRAM.Size()
				}
				in.ScrubTicks++
			})
		}
	}
}

// Inject is the one-call convenience: build the schedule for m, attach
// an injector, and return it for stats inspection.
func Inject(m *machine.T3D, cfg Config) *Injector {
	in := NewInjector(NewSchedule(cfg, m.Net.Nodes()))
	in.Attach(m)
	return in
}

// MemIntegrity sums the per-node DRAM integrity counters of a machine —
// the view experiments and soaks assert over.
func MemIntegrity(m *machine.T3D) mem.IntegrityStats {
	var s mem.IntegrityStats
	for _, n := range m.Nodes {
		s = s.Add(n.DRAM.Integrity())
	}
	return s
}

// LatentUncorrectable sums the machine's words that still hold an
// undetected uncorrectable fault.
func LatentUncorrectable(m *machine.T3D) int {
	total := 0
	for _, n := range m.Nodes {
		total += n.DRAM.LatentUncorrectable()
	}
	return total
}
