package splitc

import (
	"errors"
	"fmt"
)

// Integrity-audit mode (Config.Audit). Reliable mode (reliable.go)
// defends the wire: it re-reads remote writes and rewrites damage, so it
// only helps when the ground truth — the local source buffer — is still
// good. Memory faults attack the ground truth itself: a bit flips in the
// destination (or the source) *after* the transfer landed, and a
// read-back-and-rewrite loop would launder the corruption. Audit mode
// instead checksums both ends of every bulk transfer and, on mismatch,
// refuses to continue: the trap propagates to the recovery layer, which
// rolls the whole machine back to the last clean checkpoint. Detection
// plus rollback, never repair-in-place.

// ErrAuditMismatch is the sentinel an *AuditError unwraps to.
var ErrAuditMismatch = errors.New("splitc: integrity audit mismatch")

// AuditError reports an end-to-end checksum mismatch on a bulk transfer:
// the two ends of the region no longer agree. Recoverable programs treat
// it exactly like poison — roll back and replay.
type AuditError struct {
	PE     int    // the auditing processor
	Peer   int    // the remote end of the transfer
	Local  uint64 // FNV-1a checksum of the local buffer
	Remote uint64 // FNV-1a checksum of the remote region
	N      int64  // region size in bytes
	Write  bool   // true: local→remote transfer; false: remote→local
}

func (e *AuditError) Error() string {
	dir := "get"
	if e.Write {
		dir = "put"
	}
	return fmt.Sprintf("splitc: PE %d audit mismatch on %dB bulk %s with PE %d (local %#x, remote %#x)",
		e.PE, e.N, dir, e.Peer, e.Local, e.Remote)
}

func (e *AuditError) Unwrap() error { return ErrAuditMismatch }

// auditRegion is one bulk transfer awaiting its end-to-end audit.
type auditRegion struct {
	g     GlobalPtr
	local int64
	n     int64
	write bool
}

// FNV-1a, folded byte-at-a-time over little-endian words. Cheap, stateless,
// and order-sensitive — exactly what an end-to-end payload check needs.
const (
	fnvOffset uint64 = 0xcbf29ce484222325
	fnvPrime  uint64 = 0x100000001b3
)

func fnvWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * uint(i))) & 0xFF
		h *= fnvPrime
	}
	return h
}

// recordAudit queues a split-phase bulk transfer for auditing at the next
// completion point (Sync, AllStoreSync, Barrier), after the transfer
// itself has completed.
func (c *Ctx) recordAudit(g GlobalPtr, local, n int64, write bool) {
	c.auditRegions = append(c.auditRegions, auditRegion{g: g, local: local, n: n, write: write})
}

// auditNow checksums both ends of a completed transfer and traps with
// *AuditError on disagreement. The local side reads through the CPU; the
// remote side uses uncached remote word reads — the ~91-cycle round trip
// per word is the audit's honest price, and what extI's goodput tables
// measure. Either side may instead trap with *mem.PoisonError if it walks
// into an uncorrectable word: poison and mismatch converge on the same
// recovery path.
func (c *Ctx) auditNow(g GlobalPtr, local, n int64, write bool) {
	lh, rh := fnvOffset, fnvOffset
	for i := int64(0); i < n; i += 8 {
		lh = fnvWord(lh, c.Node.CPU.Load64(c.P, local+i))
	}
	for i := int64(0); i < n; i += 8 {
		rh = fnvWord(rh, c.Read(g.AddLocal(i)))
	}
	c.Audits++
	c.rt.Audits++
	if lh != rh {
		panic(&AuditError{PE: c.MyPE(), Peer: g.PE(), Local: lh, Remote: rh, N: n, Write: write})
	}
}

// settleAudits runs every queued audit. Callers must have completed the
// transfers first (gets drained, writes acknowledged and — in reliable
// mode — settled, BLT idle): an audit of an in-flight region would be
// a false alarm. The queue is cleared before auditing so a trap does not
// leave stale regions behind for the replayed epoch.
func (c *Ctx) settleAudits() {
	if !c.rt.Cfg.Audit || len(c.auditRegions) == 0 {
		return
	}
	regions := c.auditRegions
	c.auditRegions = nil
	for _, r := range regions {
		c.auditNow(r.g, r.local, r.n, r.write)
	}
}
