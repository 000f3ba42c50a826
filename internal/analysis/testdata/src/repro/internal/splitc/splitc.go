// Package splitc is a hermetic stub of repro/internal/splitc for
// analyzer golden tests: the same import path and method surface as
// the real Split-C runtime context, with no behavior, so the passes'
// type-based matching works exactly as it does on the real tree.
package splitc

import "repro/internal/sim"

// GlobalPtr mirrors the packed (PE, offset) global pointer.
type GlobalPtr uint64

// CPU mirrors the local-access surface of the node processor.
type CPU struct{}

// Load64 mirrors a local 64-bit load.
func (c *CPU) Load64(p *sim.Proc, va int64) uint64 { return 0 }

// Node mirrors the node a context executes on.
type Node struct{ CPU *CPU }

// Ctx mirrors the Split-C thread context.
type Ctx struct {
	Node *Node
	P    *sim.Proc
}

func (c *Ctx) Get(dst int64, g GlobalPtr)              {}
func (c *Ctx) Put(g GlobalPtr, v uint64)               {}
func (c *Ctx) BulkGet(dst int64, g GlobalPtr, n int64) {}
func (c *Ctx) BulkPut(g GlobalPtr, src, n int64)       {}
func (c *Ctx) Sync()                                   {}
func (c *Ctx) AllStoreSync()                           {}
func (c *Ctx) Barrier()                                {}

// MyPE mirrors the PE-identity query used for slotting and
// single-writer guards.
func (c *Ctx) MyPE() int { return 0 }

// Runtime mirrors the Split-C runtime's spawn surface: Run replicates
// one program body across every PE; RunOn starts it on a single PE.
type Runtime struct{}

func (rt *Runtime) Run(program func(c *Ctx)) sim.Time           { return 0 }
func (rt *Runtime) RunOn(pe int, program func(c *Ctx)) sim.Time { return 0 }

// RunErr mirrors Run with the run's failure (partition, poison, proc
// failure) returned as an error.
func (rt *Runtime) RunErr(program func(c *Ctx)) (sim.Time, error) { return 0, nil }

func (c *Ctx) Read(g GlobalPtr) uint64     { return 0 }
func (c *Ctx) Write(g GlobalPtr, v uint64) {}
