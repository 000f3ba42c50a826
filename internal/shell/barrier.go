package shell

import "repro/internal/sim"

// Barrier models the T3D's dedicated global-AND barrier wire with the
// "fuzzy" start/end split (§7.5): a node arms its bit (start-barrier),
// may keep computing, and later waits for the wire to go high
// (end-barrier). The wire goes high a fixed propagation delay after the
// last node arms, and the generation counter makes the barrier reusable
// (the end-barrier "resets the global-OR bit").
type Barrier struct {
	eng  *sim.Engine
	n    int
	arm  sim.Time
	prop sim.Time

	gen     int64 // completed generations
	arming  int64 // generation currently collecting arms
	armed   int
	highSig *sim.Signal
	raiseFn func() // b.raise, built once and scheduled every generation

	// Crossings counts completed barrier generations.
	Crossings int64
}

// BarrierTicket identifies which barrier generation a node armed.
type BarrierTicket struct{ gen int64 }

// NewBarrier builds a barrier spanning n nodes.
func NewBarrier(eng *sim.Engine, n int, armCost, propDelay sim.Time) *Barrier {
	b := &Barrier{
		eng:     eng,
		n:       n,
		arm:     armCost,
		prop:    propDelay,
		highSig: sim.NewSignal("barrier.high"),
	}
	b.raiseFn = b.raise
	return b
}

// Nodes returns the number of participants.
func (b *Barrier) Nodes() int { return b.n }

// Arm sets the calling node's barrier bit. Each node must arm exactly
// once per generation; the returned ticket is consumed by Wait.
func (b *Barrier) Arm(p *sim.Proc) BarrierTicket {
	p.Wait(b.arm)
	t := BarrierTicket{gen: b.arming}
	b.armed++
	if b.armed == b.n {
		b.armed = 0
		b.arming++
		b.eng.After(b.prop, b.raiseFn)
	}
	return t
}

// raise drives the wire high: the generation collecting arms completes.
func (b *Barrier) raise() {
	b.gen++
	b.Crossings++
	b.highSig.Fire(b.eng)
}

// Wait blocks until the wire has gone high for the ticket's generation.
func (b *Barrier) Wait(p *sim.Proc, t BarrierTicket) {
	sim.Await(p, b.highSig, func() bool { return b.gen > t.gen })
}

// Done reports (without blocking) whether the wire has gone high for the
// ticket's generation — the polling form of Wait, used by recovery code
// that must keep servicing message queues while a barrier collects.
func (b *Barrier) Done(t BarrierTicket) bool { return b.gen > t.gen }

// Reset clears partially collected arm bits after a rollback unwinds
// procs that had armed the current generation but will arm again on
// replay. Generations that already completed (wire scheduled or high)
// are untouched; every node must be quiesced when Reset is called.
func (b *Barrier) Reset() { b.armed = 0 }

// Eureka is the global-OR companion of the barrier wire (§1.2 mentions
// both global-OR and global-AND): ANY node driving the wire raises it
// machine-wide after the propagation delay. The classic use is early
// termination of a parallel search — workers poll the wire cheaply (it
// is a local shell register) and stop when someone has found the answer.
type Eureka struct {
	eng  *sim.Engine
	poll sim.Time
	prop sim.Time

	high    bool
	highSig *sim.Signal

	// Triggers counts Trigger calls (several nodes may fire together).
	Triggers int64
}

// NewEureka builds a global-OR wire. pollCost is the cost of sampling
// the local wire state; propDelay the wire propagation after a trigger.
func NewEureka(eng *sim.Engine, pollCost, propDelay sim.Time) *Eureka {
	return &Eureka{eng: eng, poll: pollCost, prop: propDelay, highSig: sim.NewSignal("eureka")}
}

// Trigger drives the wire high; it reaches every node after the
// propagation delay.
func (e *Eureka) Trigger(p *sim.Proc) {
	p.Wait(e.poll)
	e.Triggers++
	e.eng.After(e.prop, func() {
		if !e.high {
			e.high = true
			e.highSig.Fire(e.eng)
		}
	})
}

// Poll samples the wire (a local shell register read).
func (e *Eureka) Poll(p *sim.Proc) bool {
	p.Wait(e.poll)
	return e.high
}

// WaitHigh blocks until the wire is high.
func (e *Eureka) WaitHigh(p *sim.Proc) {
	sim.Await(p, e.highSig, func() bool { return e.high })
}

// Reset lowers the wire for reuse; callers must synchronize (a barrier)
// so no node is still polling the old event.
func (e *Eureka) Reset(p *sim.Proc) {
	p.Wait(e.poll)
	e.high = false
}
