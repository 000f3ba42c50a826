package splitc

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/sim"
)

// AnnexStrategy selects how the runtime manages the DTB Annex (§3.4).
type AnnexStrategy int

const (
	// SingleAnnex uses one annex register for all global accesses,
	// reloading it when the target processor or function code changes.
	// The paper's conclusion: reloading is cheap enough (23 cycles) that
	// "a single Annex entry for remote access could have sufficed".
	SingleAnnex AnnexStrategy = iota
	// MultiAnnex keeps a runtime table over several annex registers,
	// paying a ~10-cycle lookup per access to sometimes skip the reload.
	// It admits the write-buffer synonym hazard, so the compiler must
	// prove pointers unaliased before using it — provided here as the
	// paper's ablation.
	MultiAnnex
)

// Annex register roles. Registers 1..dataAnnexHigh serve data accesses;
// the top registers are reserved for the runtime's own machinery.
const (
	dataAnnexLow  = 1
	dataAnnexHigh = 29
	amAnnex       = 30 // active-message layer (package am uses it via Ctx)
	rtAnnex       = 31 // runtime-internal accesses
)

// Config parameterizes the runtime.
type Config struct {
	Annex AnnexStrategy
	// HeapBase is where each node's Split-C heap begins; below it live
	// the runtime's own structures (AM queues, counters).
	HeapBase int64
	// GetTableCost is the table update/lookup charged per get (§5.4).
	GetTableCost sim.Time
	// GetStoreCost is the local store completing a get (§5.4).
	GetStoreCost sim.Time
	// PutCheckCost covers put's bookkeeping beyond annex + store (§5.4).
	PutCheckCost sim.Time
	// BulkBLTMin is the transfer size at which blocking bulk reads switch
	// from the prefetch queue to the BLT (§6.3: "about 16 KB").
	BulkBLTMin int64
	// BulkGetBLTMin is the non-blocking crossover: the BLT's 180 µs
	// initiation buys the prefetch path ~7,900 bytes (§6.3).
	BulkGetBLTMin int64

	// Reliable arms end-to-end write verification for a faulty fabric:
	// remote puts, stores, and bulk writes are recorded and read back at
	// the next completion point (Sync, AllStoreSync, Barrier; blocking
	// writes verify inline), with damaged words rewritten until a clean
	// verification pass. Reads and the BLT ride the reliable control
	// path and need no verification. Off by default: the T3D fabric the
	// paper measures never loses a packet, and verification reads cost
	// real cycles.
	Reliable bool
	// MaxWriteRetries bounds verification passes per completion point
	// before the runtime declares the fabric dead (0 = a default of 8).
	MaxWriteRetries int

	// Audit arms end-to-end integrity auditing of bulk transfers against
	// memory corruption (which Reliable cannot catch: it trusts the local
	// buffer as ground truth). Blocking bulk reads and writes are
	// checksummed inline; split-phase ones (BulkGet, BulkPut) at the next
	// completion point. A mismatch — or an ECC-poisoned word met along
	// the way — traps, and a recovery runtime rolls back to the last
	// clean checkpoint. Off by default: audits re-read every transferred
	// word remotely, a real cycle cost the extI experiment measures.
	Audit bool
}

// DefaultConfig returns the paper's production choices.
func DefaultConfig() Config {
	return Config{
		Annex:         SingleAnnex,
		HeapBase:      64 << 10,
		GetTableCost:  10,
		GetStoreCost:  3,
		PutCheckCost:  4,
		BulkBLTMin:    16 << 10,
		BulkGetBLTMin: 7900,
	}
}

// Runtime owns the per-machine Split-C state.
type Runtime struct {
	M   *machine.T3D
	Cfg Config

	// Rewrites aggregates reliable-mode verification rewrites across all
	// threads (the event loop serializes them, so a plain counter is
	// deterministic). Audits aggregates completed end-to-end integrity
	// audits the same way.
	Rewrites int64
	Audits   int64
}

// NewRuntime builds a runtime over a machine.
func NewRuntime(m *machine.T3D, cfg Config) *Runtime {
	if cfg.Reliable && cfg.MaxWriteRetries <= 0 {
		cfg.MaxWriteRetries = 8
	}
	return &Runtime{M: m, Cfg: cfg}
}

// ReliableConfig is DefaultConfig with end-to-end write verification on.
func ReliableConfig() Config {
	c := DefaultConfig()
	c.Reliable = true
	return c
}

// Run executes program as one thread per processor from a single code
// image and returns the elapsed simulated cycles.
func (rt *Runtime) Run(program func(c *Ctx)) sim.Time {
	return rt.M.Run(func(p *sim.Proc, n *machine.Node) {
		program(rt.newCtx(p, n))
	})
}

// RunErr is Run with structured failure reporting: a proc failure,
// deadlock, or livelock surfaces as an error (machine.T3D.RunErr)
// instead of a panic, so overload experiments can drive the runtime to
// the edge and inspect what broke.
func (rt *Runtime) RunErr(program func(c *Ctx)) (sim.Time, error) {
	return rt.M.RunErr(func(p *sim.Proc, n *machine.Node) {
		program(rt.newCtx(p, n))
	})
}

// RunOn executes program on a single processor (micro-benchmark setup).
func (rt *Runtime) RunOn(pe int, program func(c *Ctx)) sim.Time {
	return rt.M.RunOn(pe, func(p *sim.Proc, n *machine.Node) {
		program(rt.newCtx(p, n))
	})
}

func (rt *Runtime) newCtx(p *sim.Proc, n *machine.Node) *Ctx {
	c := &Ctx{
		rt:        rt,
		P:         p,
		Node:      n,
		heapNext:  rt.Cfg.HeapBase,
		boundPE:   -1,
		annexMap:  make([]int8, len(rt.M.Nodes)),
		annexNext: dataAnnexLow,
	}
	for i := range c.annexMap {
		c.annexMap[i] = -1
	}
	return c
}

// Ctx is the per-processor runtime context: the state the compiled code
// would keep in registers and the runtime's static data.
type Ctx struct {
	rt   *Runtime
	P    *sim.Proc
	Node *machine.Node

	heapNext int64

	// Single-annex strategy state: what data annex register 1 holds.
	boundPE     int
	boundCached bool

	// Multi-annex strategy state: PE -> annex register (-1 when none),
	// round-robin victim selection.
	annexMap  []int8
	annexOcc  [dataAnnexHigh + 1]int
	annexNext int

	// Outstanding gets: the runtime table of prefetch target addresses,
	// oldest first. drainGets retires from the front into the same
	// backing array, so steady-state gets do not regrow it.
	gets []int64

	// Reliable-mode write records awaiting verification. relPending is
	// deduplicated by address (last value wins: same-route writes commit
	// in order) and kept as a slice so verification order — and thus
	// timing — is deterministic. relRegions are bulk writes verified
	// against their local source buffers, which the split-phase contract
	// keeps stable until Sync.
	relPending []relWrite
	relIndex   map[GlobalPtr]int
	relRegions []relRegion
	settling   bool // true while verification rewrites are in flight

	// Audit-mode bulk transfers awaiting their end-to-end checksum.
	auditRegions []auditRegion

	// Stats. Rewrites counts words rewritten by reliable-mode
	// verification (i.e. remote writes damaged in flight); Audits counts
	// completed end-to-end region audits.
	Reads, Writes, Gets, Puts, Stores, Syncs int64
	Rewrites                                 int64
	Audits                                   int64
}

// relWrite is one remote word write awaiting verification.
type relWrite struct {
	g GlobalPtr
	v uint64
}

// relRegion is one remote bulk write awaiting verification.
type relRegion struct {
	g   GlobalPtr
	src int64
	n   int64
}

// MyPE returns this thread's processor number.
func (c *Ctx) MyPE() int { return c.Node.PE }

// NProc returns the machine size.
func (c *Ctx) NProc() int { return len(c.rt.M.Nodes) }

// Compute charges n cycles of local work (the application's computation).
func (c *Ctx) Compute(n sim.Time) { c.Node.CPU.Compute(c.P, n) }

// Alloc carves n bytes (8-byte aligned) from the local heap. Because all
// threads run the same program image, identical allocation sequences
// yield identical offsets on every processor — the property spread
// arrays rely on.
func (c *Ctx) Alloc(n int64) int64 {
	a := c.heapNext
	c.heapNext += (n + 7) &^ 7
	if c.heapNext > c.Node.DRAM.Size() {
		panic(fmt.Sprintf("splitc: PE %d heap overflow (%d bytes)", c.MyPE(), c.heapNext))
	}
	return a
}

// AllocAligned is Alloc with the start rounded up to align bytes.
func (c *Ctx) AllocAligned(n, align int64) int64 {
	c.heapNext = (c.heapNext + align - 1) &^ (align - 1)
	return c.Alloc(n)
}
