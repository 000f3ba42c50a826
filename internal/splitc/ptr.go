// Package splitc implements the Split-C language runtime on the simulated
// T3D, following the code-generation choices the paper derives from its
// micro-benchmarks:
//
//   - Global pointers are 64-bit values with the processor number in the
//     upper 16 bits and the local address in the lower 48 (§3.3); address
//     arithmetic works exactly as on local pointers because bit 41 of any
//     valid local address is zero.
//   - The runtime manages a single DTB Annex register by default,
//     reloading it (23 cycles) when the target processor changes — the
//     multi-register strategy is provided as an ablation and carries the
//     §3.4 synonym hazard.
//   - read uses uncached remote loads (§4.4); write uses the store +
//     memory barrier + completion-poll sequence (§4.3).
//   - get rides the binding-prefetch FIFO with a runtime table of target
//     addresses (§5.4); put is a non-blocking remote store; sync awaits
//     both.
//   - Bulk transfers pick between the prefetch queue, non-blocking
//     stores, and the BLT at the crossover points of Figure 8 (§6.3).
//   - store (:=) is a put with deferred completion; all_store_sync
//     combines the write-completion poll with the fuzzy hardware barrier
//     (§7.5); message-driven completion uses the shared-memory active
//     message layer in package am.
package splitc

import (
	"fmt"

	"repro/internal/sim"
)

// peShift is the bit position of the processor number in a global pointer.
const peShift = 48

// localMask extracts the local-address component.
const localMask = 1<<peShift - 1

// GlobalPtr is a Split-C global pointer: processor number in the upper 16
// bits, local address in the lower 48. The zero value is the null global
// pointer (§3.1: null tests work exactly as on standard pointers).
type GlobalPtr uint64

// Global constructs a global pointer from processor and local address.
//
//t3d:hotpath
func Global(pe int, local int64) GlobalPtr {
	if pe < 0 || pe >= 1<<16 {
		panic(fmt.Sprintf("splitc: processor %d out of range", pe))
	}
	if local < 0 || local > localMask {
		panic(fmt.Sprintf("splitc: local address %#x out of range", local))
	}
	return GlobalPtr(uint64(pe)<<peShift | uint64(local))
}

// PE extracts the processor component.
func (g GlobalPtr) PE() int { return int(g >> peShift) }

// Local extracts the local-address component.
func (g GlobalPtr) Local() int64 { return int64(g & localMask) }

// IsNull reports whether g is the null global pointer.
func (g GlobalPtr) IsNull() bool { return g == 0 }

// AddLocal advances the pointer by n bytes of local addressing: the
// result refers to the same processor. Because bit 41 of any valid T3D
// virtual address is zero, the addition can never carry into the
// processor field (§3.3) — enforced here by the Global range checks.
func (g GlobalPtr) AddLocal(n int64) GlobalPtr {
	return Global(g.PE(), g.Local()+n)
}

// AddGlobal advances the pointer by n elements of size elemSize in global
// addressing: the processor component varies fastest, wrapping from the
// last processor to the next offset on processor 0 (§3.1).
func (g GlobalPtr) AddGlobal(n int64, elemSize int64, nproc int) GlobalPtr {
	idx := int64(g.PE()) + n
	pe := idx % int64(nproc)
	rows := idx / int64(nproc)
	if pe < 0 { // Go's remainder is toward zero; normalize
		pe += int64(nproc)
		rows--
	}
	return Global(int(pe), g.Local()+rows*elemSize)
}

// String formats the pointer for diagnostics.
func (g GlobalPtr) String() string {
	if g.IsNull() {
		return "global<nil>"
	}
	return fmt.Sprintf("global<pe=%d,%#x>", g.PE(), g.Local())
}

// PtrOpCost is the cycle cost of global-pointer manipulation: the Alpha's
// byte-extract/insert instructions make construction, extraction, and
// arithmetic one or two instructions each (§3.3).
const PtrOpCost sim.Time = 2
