package hostfs

import (
	"fmt"
	"io/fs"
	"sync"

	"repro/internal/fault"
)

// FaultConfig parameterizes the deterministic disk-fault injector. The
// zero value injects nothing. Rates are per-operation probabilities
// drawn from a single seeded splitmix64 stream (the same core as
// internal/fault), consumed in operation order: a single-writer caller
// like the journal therefore sees the identical fault sequence on every
// run with the same seed.
type FaultConfig struct {
	Seed uint64

	// WriteErrRate fails a Write with ErrInjectedIO before any byte
	// lands — the clean EIO.
	WriteErrRate float64
	// ShortWriteRate fails a Write with ErrInjectedIO after a seeded
	// strict prefix of the buffer has landed — the torn write.
	ShortWriteRate float64
	// SyncErrRate fails a Sync with ErrInjectedIO. The preceding writes
	// may or may not be durable; callers must treat the record as
	// unacknowledged.
	SyncErrRate float64
	// WriteBudget, when positive, bounds the total bytes writable
	// through this FS; the write that crosses it lands only the
	// remaining prefix and fails ErrNoSpace, and every later write
	// fails ErrNoSpace until Heal lifts the budget — the ENOSPC
	// brownout.
	WriteBudget int64
}

// BrokenMode is the externally driven persistent-failure state of the
// fault disk, on top of the seeded per-op rates.
type BrokenMode int32

const (
	// Healthy injects only the seeded per-op faults.
	Healthy BrokenMode = iota
	// BrokenEIO fails every write and sync with ErrInjectedIO.
	BrokenEIO
	// BrokenENOSPC fails every write with ErrNoSpace (syncs succeed:
	// a full disk still flushes what it has).
	BrokenENOSPC
)

func (m BrokenMode) String() string {
	switch m {
	case Healthy:
		return "healthy"
	case BrokenEIO:
		return "eio"
	case BrokenENOSPC:
		return "enospc"
	}
	return fmt.Sprintf("BrokenMode(%d)", int32(m))
}

// FaultStats counts injected failures, for assertions and /statusz.
type FaultStats struct {
	WriteErrs   int64
	ShortWrites int64
	SyncErrs    int64
	NoSpace     int64
}

// Fault is the fault-injecting FS. It wraps an inner FS (usually OS())
// and perturbs the data plane only: reads, OpenFile and ReadDir always
// pass through, and Rename/Remove fail only on a dead disk, because the
// interesting failures — the ones the journal's ack contract depends
// on — are on the write/fsync path.
type Fault struct {
	inner FS
	cfg   FaultConfig

	mu      sync.Mutex
	rng     fault.Rand
	written int64 // bytes accepted against WriteBudget
	broken  BrokenMode
	stats   FaultStats
}

// NewFault wraps inner with the seeded fault injector.
func NewFault(inner FS, cfg FaultConfig) *Fault {
	return &Fault{inner: inner, cfg: cfg, rng: fault.Rand{State: cfg.Seed}}
}

// SetBroken drives the persistent-failure state (the smoke script's
// brownout lever). Healthy only clears the mode; an exhausted
// WriteBudget stays exhausted — use Heal for the full repair.
func (f *Fault) SetBroken(m BrokenMode) {
	f.mu.Lock()
	f.broken = m
	f.mu.Unlock()
}

// Broken reports the current persistent-failure mode.
func (f *Fault) Broken() BrokenMode {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.broken
}

// Heal repairs the disk: clears the broken mode and lifts an exhausted
// write budget. Seeded per-op rates keep applying — Heal models the
// brownout ending, not a new disk.
func (f *Fault) Heal() {
	f.mu.Lock()
	f.broken = Healthy
	f.cfg.WriteBudget = 0
	f.mu.Unlock()
}

// Stats returns a snapshot of the injected-failure counters.
func (f *Fault) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

func (f *Fault) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

// Rename and Remove fail only under BrokenEIO: metadata ops on a full
// disk succeed, but a dead disk takes everything down.
func (f *Fault) Rename(oldpath, newpath string) error {
	if f.Broken() == BrokenEIO {
		return fmt.Errorf("hostfs: rename %s: %w", newpath, ErrInjectedIO)
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *Fault) Remove(name string) error {
	if f.Broken() == BrokenEIO {
		return fmt.Errorf("hostfs: remove %s: %w", name, ErrInjectedIO)
	}
	return f.inner.Remove(name)
}

func (f *Fault) ReadDir(dir string) ([]string, error) { return f.inner.ReadDir(dir) }

// draw consumes one probability draw from the shared stream.
func (f *Fault) draw() float64 {
	return f.rng.Float()
}

// faultFile applies the per-op fault model around the inner handle.
type faultFile struct {
	fs    *Fault
	inner File
}

func (ff *faultFile) Write(p []byte) (int, error) {
	f := ff.fs
	f.mu.Lock()
	switch f.broken {
	case BrokenEIO:
		f.stats.WriteErrs++
		f.mu.Unlock()
		return 0, fmt.Errorf("hostfs: write: %w", ErrInjectedIO)
	case BrokenENOSPC:
		f.stats.NoSpace++
		f.mu.Unlock()
		return 0, fmt.Errorf("hostfs: write: %w", ErrNoSpace)
	}
	// ENOSPC budget: the crossing write lands only what fits.
	if b := f.cfg.WriteBudget; b > 0 {
		remain := b - f.written
		if remain <= 0 {
			f.stats.NoSpace++
			f.mu.Unlock()
			return 0, fmt.Errorf("hostfs: write: %w", ErrNoSpace)
		}
		if remain < int64(len(p)) {
			f.written = b
			f.stats.NoSpace++
			f.mu.Unlock()
			n, err := ff.inner.Write(p[:remain])
			if err != nil {
				return n, err
			}
			return n, fmt.Errorf("hostfs: write: %w", ErrNoSpace)
		}
	}
	if r := f.cfg.WriteErrRate; r > 0 && f.draw() < r {
		f.stats.WriteErrs++
		f.mu.Unlock()
		return 0, fmt.Errorf("hostfs: write: %w", ErrInjectedIO)
	}
	if r := f.cfg.ShortWriteRate; r > 0 && len(p) > 1 && f.draw() < r {
		n := 1 + f.rng.Intn(len(p)-1) // strict prefix, never the whole buffer
		f.stats.ShortWrites++
		f.written += int64(n)
		f.mu.Unlock()
		if wn, err := ff.inner.Write(p[:n]); err != nil {
			return wn, err
		}
		return n, fmt.Errorf("hostfs: short write (%d of %d bytes): %w", n, len(p), ErrInjectedIO)
	}
	f.written += int64(len(p))
	f.mu.Unlock()
	return ff.inner.Write(p)
}

func (ff *faultFile) Sync() error {
	f := ff.fs
	f.mu.Lock()
	if f.broken == BrokenEIO {
		f.stats.SyncErrs++
		f.mu.Unlock()
		return fmt.Errorf("hostfs: fsync: %w", ErrInjectedIO)
	}
	if r := f.cfg.SyncErrRate; r > 0 && f.draw() < r {
		f.stats.SyncErrs++
		f.mu.Unlock()
		return fmt.Errorf("hostfs: fsync: %w", ErrInjectedIO)
	}
	f.mu.Unlock()
	return ff.inner.Sync()
}

func (ff *faultFile) Read(p []byte) (int, error) { return ff.inner.Read(p) }

func (ff *faultFile) Seek(offset int64, whence int) (int64, error) {
	return ff.inner.Seek(offset, whence)
}

// Truncate passes through unless the disk is dead: the journal uses it
// to repair its own torn tails, and a repair path that itself always
// failed would just be a second EIO knob.
func (ff *faultFile) Truncate(size int64) error {
	if ff.fs.Broken() == BrokenEIO {
		return fmt.Errorf("hostfs: truncate: %w", ErrInjectedIO)
	}
	return ff.inner.Truncate(size)
}

func (ff *faultFile) Close() error { return ff.inner.Close() }
