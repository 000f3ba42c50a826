package shell

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
)

// BLTDir selects the block-transfer direction.
type BLTDir int

const (
	// BLTRead pulls remote memory into local memory.
	BLTRead BLTDir = iota
	// BLTWrite pushes local memory into remote memory.
	BLTWrite
)

// BLTStart initiates a contiguous block transfer of nbytes between
// localOff in local memory and remoteOff on node peer. The call blocks
// for the 180 µs operating-system invocation (§6.2 — the BLT is reachable
// only through a system call); the transfer itself then proceeds
// asynchronously and is awaited with BLTWait.
func (s *Shell) BLTStart(p *sim.Proc, dir BLTDir, peer int, localOff, remoteOff, nbytes int64) {
	s.bltStart(p, dir, peer, localOff, remoteOff, nbytes, int64(s.cfg.BLTChunk), 0)
}

// BLTStartStrided initiates a strided transfer: count elements of
// elemSize bytes, contiguous locally, separated by remoteStride bytes on
// the remote side. Element-granularity packets make small-element strided
// transfers slow, as on the real engine.
func (s *Shell) BLTStartStrided(p *sim.Proc, dir BLTDir, peer int, localOff, remoteOff, elemSize, count, remoteStride int64) {
	s.bltStart(p, dir, peer, localOff, remoteOff, elemSize*count, elemSize, remoteStride)
}

func (s *Shell) bltStart(p *sim.Proc, dir BLTDir, peer int, localOff, remoteOff, nbytes, chunk, remoteStride int64) {
	if s.bltBusy {
		panic(fmt.Sprintf("shell: PE %d started a BLT transfer while one is active", s.pe))
	}
	if nbytes <= 0 || chunk <= 0 {
		panic("shell: BLT transfer of non-positive size")
	}
	p.Wait(s.cfg.BLTTrap)
	s.bltBusy = true

	pace := s.cfg.BLTReadCycles
	if dir == BLTWrite {
		pace = s.cfg.BLTWriteCycles
	}
	srcPE, dstPE := peer, s.pe
	if dir == BLTWrite {
		srcPE, dstPE = s.pe, peer
	}

	type chunkDesc struct {
		src, dst int64
		n        int64
	}
	var chunks []chunkDesc
	local, remote := localOff, remoteOff
	for left := nbytes; left > 0; left -= chunk {
		n := chunk
		if n > left {
			n = left
		}
		src, dst := remote, local
		if dir == BLTWrite {
			src, dst = local, remote
		}
		chunks = append(chunks, chunkDesc{src, dst, n})
		local += n
		if remoteStride > 0 {
			remote += remoteStride
		} else {
			remote += n
		}
	}

	remaining := len(chunks)
	s.eng.Spawn(fmt.Sprintf("blt-pe%d", s.pe), func(bp *sim.Proc) {
		for _, ch := range chunks {
			// A link can hard-fault mid-transfer: re-verify the path per
			// chunk so a partition aborts the engine proc with a
			// structured error instead of stranding the transfer.
			s.checkReachable(peer)
			// Engine pacing: the DMA moves one chunk per pace interval,
			// scaled for sub-chunk (strided) elements.
			cycles := (pace*sim.Time(ch.n) + sim.Time(s.cfg.BLTChunk) - 1) / sim.Time(s.cfg.BLTChunk)
			if cycles < 8 {
				cycles = 8
			}
			bp.Wait(cycles)
			srcNode := s.node(srcPE)
			// The DMA engine pipelines: it starts the source access and
			// moves on; the packet departs when the data is ready.
			complete, _ := srcNode.DRAM.ReadAccess(bp.Now(), ch.src)
			src, dst, n := ch.src, ch.dst, ch.n
			s.eng.At(complete, func() {
				data := make([]byte, n)
				// The chunk streams through the SECDED pipe: singles are
				// repaired (the DMA pipeline hides the correction
				// latency), uncorrectable words travel tagged and poison
				// their destination copies — corruption never launders
				// itself through a block transfer.
				_, poisonedWords := srcNode.DRAM.ReadChecked(src, data)
				s.fab.Net.Send(srcPE, dstPE, int(n), func() {
					dn := s.node(dstPE)
					dn.DRAM.Write(dst, data)
					for _, pw := range poisonedWords {
						dn.DRAM.PropagatePoison(dst + (pw - src))
					}
					if len(poisonedWords) > 0 && !s.bltPoison {
						s.bltPoison = true
						s.bltPoisonAddr = poisonedWords[0]
					}
					if s.cfg.InvalidateMode {
						// Data changed beneath the destination's cache.
						for line := dn.L1.LineAddr(dst); line < dst+n; line += dn.L1.Config().LineSize {
							dn.L1.Invalidate(line)
						}
					}
					remaining--
					if remaining == 0 {
						s.bltBusy = false
						s.bltSig.Fire(s.eng)
					}
				})
			})
		}
	})
}

// BLTWait blocks until the in-flight block transfer completes. If the
// transfer moved an uncorrectable word (the engine's completion status
// reports the ECC tag), it traps with *mem.PoisonError — after marking
// the destination words poisoned, so even a caller that swallows the
// trap cannot read the damage silently.
func (s *Shell) BLTWait(p *sim.Proc) {
	for s.bltBusy {
		p.WaitSignal(&s.bltSig)
	}
	if s.bltPoison {
		a := s.bltPoisonAddr
		s.bltPoison = false
		panic(&mem.PoisonError{PE: s.pe, Addr: a})
	}
}

// BLTDiscard is BLTWait for the rollback path: it drains the transfer
// and clears any poison status without trapping — the epoch's data is
// being rolled back anyway.
func (s *Shell) BLTDiscard(p *sim.Proc) {
	for s.bltBusy {
		p.WaitSignal(&s.bltSig)
	}
	s.bltPoison = false
}

// BLTBusy reports whether a transfer is in flight.
func (s *Shell) BLTBusy() bool { return s.bltBusy }

// BLTPoisoned reports whether a completed transfer left unconsumed
// poison status (BLTWait will trap). Completion points must check it
// even when the engine is idle.
func (s *Shell) BLTPoisoned() bool { return s.bltPoison }
