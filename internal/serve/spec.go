package serve

import (
	"fmt"

	"repro/internal/em3d"
	"repro/internal/fault"
)

// Supported apps.
const (
	AppEM3D       = "em3d"
	AppSampleSort = "samplesort"
)

// DefaultTenant is the tenant every unlabeled request — and every
// journal record of one, whose spec carries an empty tenant — belongs
// to.
const DefaultTenant = "default"

// FaultSpec is the job-facing subset of fault.Config: the transient and
// memory fault knobs that make sense for an unattended service run.
// (Hard node faults need a recovery driver wired to the injector; they
// stay a batch-harness feature for now.) The zero value injects
// nothing.
type FaultSpec struct {
	Seed        uint64  `json:"seed,omitempty"`
	DropRate    float64 `json:"drop_rate,omitempty"`
	CorruptRate float64 `json:"corrupt_rate,omitempty"`
	// Memory bit flips per PE per million cycles over the horizon;
	// MultiFrac of them double-bit (uncorrectable — the job then
	// reports a poison verdict, a deterministic result).
	MemFaultRate float64 `json:"mem_fault_rate,omitempty"`
	MemMultiFrac float64 `json:"mem_multi_frac,omitempty"`
	// Horizon bounds the scheduled fault plan; required (and defaulted)
	// when MemFaultRate is set.
	Horizon int64 `json:"horizon,omitempty"`
}

func (f FaultSpec) enabled() bool {
	return f.DropRate != 0 || f.CorruptRate != 0 || f.MemFaultRate != 0
}

// config lowers the spec onto the full fault.Config.
func (f FaultSpec) config() fault.Config {
	return fault.Config{
		Seed:         f.Seed,
		DropRate:     f.DropRate,
		CorruptRate:  f.CorruptRate,
		MemFaultRate: f.MemFaultRate,
		MemMultiFrac: f.MemMultiFrac,
		Horizon:      f.Horizon,
	}
}

// JobSpec is one simulation request: which app, on what machine, with
// what seed and fault plan. Identical specs are identical computations
// — the simulator is deterministic — so the canonical hash of a
// normalized spec (see Key) content-addresses the result.
//
// The budget fields bound the run but do not change what it computes,
// so they are excluded from the canonical hash: a job finished under a
// generous budget is a valid cache hit for the same spec under any
// budget.
type JobSpec struct {
	// Tenant is the submitting tenant's name — scheduling identity, not
	// content. Like the budgets it is excluded from the canonical hash:
	// the simulation computes the same bits no matter who asked, so the
	// result cache stays content-addressed and shared across tenants.
	Tenant string `json:"tenant,omitempty"`

	App      string `json:"app,omitempty"`       // em3d (default) or samplesort
	PEs      int    `json:"pes,omitempty"`       // machine size (default 8)
	MemBytes int64  `json:"mem_bytes,omitempty"` // DRAM per node (default 2 MB)

	// em3d parameters (defaults mirror cmd/em3d's quick scale).
	Version    string  `json:"version,omitempty"` // Simple..Bulk (default Bulk)
	NodesPerPE int     `json:"nodes_per_pe,omitempty"`
	Degree     int     `json:"degree,omitempty"`
	RemoteFrac float64 `json:"remote_frac,omitempty"`
	Iters      int     `json:"iters,omitempty"`

	// samplesort parameters.
	KeysPerPE int `json:"keys_per_pe,omitempty"`

	Seed     int64     `json:"seed,omitempty"` // graph/key generation seed
	Reliable bool      `json:"reliable,omitempty"`
	Audit    bool      `json:"audit,omitempty"`
	Fault    FaultSpec `json:"fault,omitempty"`

	// Budgets — excluded from the canonical hash.
	CycleLimit  int64 `json:"cycle_limit,omitempty"`   // simulated cycles (0 = server default)
	WallLimitMS int64 `json:"wall_limit_ms,omitempty"` // wall milliseconds (0 = server default)

	// CheckpointCycles is the durable-checkpoint cadence: at most one
	// checkpoint file is published per this many simulated cycles
	// (0 = the server default, which is off unless configured). Like
	// the budgets it is excluded from the canonical hash — cadence
	// changes how often the run's state is persisted, never what the
	// run computes; resumed jobs produce digests bit-identical to
	// uninterrupted ones, which is what keeps the exclusion sound.
	// Only em3d jobs checkpoint today (samplesort has no epoch
	// structure to align on); Normalize zeroes it for other apps.
	CheckpointCycles int64 `json:"checkpoint_cycles,omitempty"`
}

// Normalize returns the canonical form of the spec: every defaulted
// zero value replaced by its concrete default. Two requests that differ
// only in spelling out defaults normalize — and therefore hash — equal.
func (s JobSpec) Normalize() JobSpec {
	n := s
	if n.Tenant == "" {
		n.Tenant = DefaultTenant
	}
	if n.App == "" {
		n.App = AppEM3D
	}
	if n.PEs == 0 {
		n.PEs = 8
	}
	if n.MemBytes == 0 {
		n.MemBytes = 2 << 20
	}
	if n.Seed == 0 {
		n.Seed = 42
	}
	switch n.App {
	case AppEM3D:
		if n.Version == "" {
			n.Version = em3d.Bulk.String()
		}
		if n.NodesPerPE == 0 {
			n.NodesPerPE = 120
		}
		if n.Degree == 0 {
			n.Degree = 8
		}
		if n.Iters == 0 {
			n.Iters = 2
		}
		n.KeysPerPE = 0
	case AppSampleSort:
		if n.KeysPerPE == 0 {
			n.KeysPerPE = 48
		}
		n.Version, n.NodesPerPE, n.Degree, n.RemoteFrac, n.Iters = "", 0, 0, 0, 0
	}
	if n.Fault.MemFaultRate != 0 && n.Fault.Horizon == 0 {
		n.Fault.Horizon = 5_000_000
	}
	if n.App != AppEM3D {
		n.CheckpointCycles = 0
	} else if n.CheckpointCycles > 0 && n.CheckpointCycles < MinCheckpointCycles {
		// Clamp to the cancel-poll granularity: a cadence finer than the
		// engine's host-poll stride could never be honored anyway.
		n.CheckpointCycles = MinCheckpointCycles
	}
	return n
}

// Validate rejects specs the runner cannot execute. Messages are
// "serve: <field>: <reason>" so rejections grep by field.
func (s JobSpec) Validate() error {
	n := s.Normalize()
	if err := validTenant(n.Tenant); err != nil {
		return err
	}
	switch n.App {
	case AppEM3D:
		if _, ok := parseVersion(n.Version); !ok {
			return fmt.Errorf("serve: version: unknown em3d version %q", n.Version)
		}
		if n.RemoteFrac < 0 || n.RemoteFrac > 1 {
			return fmt.Errorf("serve: remote_frac: must be in [0,1], got %g", n.RemoteFrac)
		}
		if n.NodesPerPE < 1 || n.NodesPerPE > 4096 {
			return fmt.Errorf("serve: nodes_per_pe: must be in [1,4096], got %d", n.NodesPerPE)
		}
		if n.Degree < 1 || n.Degree > 64 {
			return fmt.Errorf("serve: degree: must be in [1,64], got %d", n.Degree)
		}
		if n.Iters < 1 || n.Iters > 64 {
			return fmt.Errorf("serve: iters: must be in [1,64], got %d", n.Iters)
		}
	case AppSampleSort:
		if n.KeysPerPE < 1 || n.KeysPerPE > 1<<16 {
			return fmt.Errorf("serve: keys_per_pe: must be in [1,65536], got %d", n.KeysPerPE)
		}
	default:
		return fmt.Errorf("serve: app: unknown app %q", s.App)
	}
	if n.PEs < 1 || n.PEs > 256 {
		return fmt.Errorf("serve: pes: must be in [1,256], got %d", n.PEs)
	}
	if n.MemBytes < 64<<10 || n.MemBytes > 64<<20 {
		return fmt.Errorf("serve: mem_bytes: must be in [64KiB,64MiB], got %d", n.MemBytes)
	}
	if n.CycleLimit < 0 {
		return fmt.Errorf("serve: cycle_limit: must be non-negative, got %d", n.CycleLimit)
	}
	if n.WallLimitMS < 0 {
		return fmt.Errorf("serve: wall_limit_ms: must be non-negative, got %d", n.WallLimitMS)
	}
	if s.CheckpointCycles < 0 {
		return fmt.Errorf("serve: checkpoint_cycles: must be non-negative, got %d", s.CheckpointCycles)
	}
	fcfg := n.Fault.config()
	if err := fcfg.Validate(); err != nil {
		return fmt.Errorf("serve: fault: %w", err)
	}
	if flips := fault.MemFlipCount(fcfg, n.PEs); flips > maxMemFlips {
		return fmt.Errorf("serve: fault: mem_fault_rate: the plan holds %.0f flips over %d cycles on %d PEs, above the cap of %d",
			flips, fcfg.Horizon, n.PEs, maxMemFlips)
	}
	return nil
}

// maxMemFlips caps a served job's memory-fault plan. fault.NewSchedule
// builds every flip up front, allocating about 200 bytes per flip, so
// the cap bounds that near 26 MiB. An accepted job is journaled and
// replays after a restart, so a plan that cannot fit must be refused
// before it exists.
const maxMemFlips = 1 << 17

// validTenant bounds tenant names: they appear in journal records, HTTP
// headers, flags, and logs, so they stay short and unambiguous.
func validTenant(name string) error {
	if len(name) > 64 {
		return fmt.Errorf("serve: tenant: name longer than 64 bytes (%d)", len(name))
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return fmt.Errorf("serve: tenant: invalid byte %q in name %q (want [A-Za-z0-9._-])", c, name)
		}
	}
	return nil
}

func parseVersion(s string) (em3d.Version, bool) {
	for _, v := range em3d.Versions {
		if v.String() == s {
			return v, true
		}
	}
	return 0, false
}

// JobResult is the cacheable outcome of one completed job. Digest is
// the bit-identity comparator: two runs computed the same physics iff
// their digests match, which is what makes the cache and crash-replay
// sound.
type JobResult struct {
	App       string  `json:"app"`
	Digest    string  `json:"digest"` // FNV-1a over the output field, hex
	Cycles    int64   `json:"cycles"`
	Validated bool    `json:"validated"`
	USPerEdge float64 `json:"us_per_edge,omitempty"` // em3d only
	Rewrites  int64   `json:"rewrites,omitempty"`
	Audits    int64   `json:"audits,omitempty"`
	Cached    bool    `json:"cached,omitempty"` // set on responses served from cache
}
