// Package sim is a hermetic stub of repro/internal/sim for analyzer
// golden tests: the same import path and the slice of the API the
// fixtures touch, with no behavior.
package sim

// Time mirrors the event-kernel clock type.
type Time = int64

// Proc mirrors a simulated processor context.
type Proc struct{}

// Now returns the simulated clock.
func (p *Proc) Now() Time { return 0 }

// Compute charges n simulated cycles.
func (p *Proc) Compute(n Time) {}

// Signal mirrors the scheduler wait primitive.
type Signal struct{}

// Fire mirrors the publication half of the write-then-Fire idiom.
func (s *Signal) Fire(e *Engine) {}

// WaitSignal parks the proc until the signal fires.
func (p *Proc) WaitSignal(s *Signal) {}

// Engine mirrors the event kernel's spawn surface.
type Engine struct{}

// Spawn mirrors starting a single proc on the event kernel.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc { return nil }

// spawn exists to prove the determinism exemption: the scheduler
// itself owns goroutine creation, so a raw go statement inside
// repro/internal/sim must not be flagged.
func spawn(f func()) {
	go f()
}
