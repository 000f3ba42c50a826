package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The event heap's contract, checked against a reference model: every
// event fires in (at, seq) order, where seq is the order in which it was
// scheduled. The model keeps its own list of every event a scenario
// schedules and, at the end, sorts it by (at, seq) and walks it as the
// engine should have: a callback fires, the first wakeup of a wait
// resumes its proc, and a later wakeup of the same wait is stale (popped
// and counted, never seen). A cycle Limit stops the walk at the first
// event past it, which is consumed. The scenarios mix callbacks, proc
// Waits and Yields, and WaitSignalTimeouts whose timeout or signal goes
// stale, at delays of 0–2 cycles, so most times tie.

// heapScript feeds a scenario its decisions, one byte each; an
// exhausted script reads zeros.
type heapScript struct{ b []byte }

func (s *heapScript) next(n int) int {
	if len(s.b) == 0 {
		return 0
	}
	v := int(s.b[0]) % n
	s.b = s.b[1:]
	return v
}

// firing is one observable event: callback cb ran, or wait resumed its
// proc (the other is -1), at time at.
type firing struct {
	at       Time
	cb, wait int
}

// refEvent is one scheduled event as the model saw it scheduled.
type refEvent struct {
	at       Time
	seq      int // the model's own count of scheduling calls
	cb, wait int
}

type heapModel struct {
	t      *testing.T
	e      *Engine
	script heapScript
	sigs   [2]*Signal

	events   []refEvent
	seen     []firing
	nextCB   int
	resolved []bool   // per wait: its proc has resumed
	fired    []bool   // per wait: a Fire scheduled its wakeup
	blockOn  []string // per wait: the signal it parks on, if any
	waiters  [2][]int // per signal: registered waits, in order
}

func (m *heapModel) record(at Time, cb, wait int) {
	m.events = append(m.events, refEvent{at: at, seq: len(m.events), cb: cb, wait: wait})
}

func (m *heapModel) newWait() int {
	m.resolved = append(m.resolved, false)
	m.fired = append(m.fired, false)
	m.blockOn = append(m.blockOn, "")
	return len(m.resolved) - 1
}

func (m *heapModel) resumed(w int) {
	m.resolved[w] = true
	m.seen = append(m.seen, firing{at: m.e.Now(), cb: -1, wait: w})
}

// at schedules a callback d cycles from now. When it runs, a callback
// with depth left may schedule another or fire a signal.
func (m *heapModel) at(d Time, depth int) {
	id := m.nextCB
	m.nextCB++
	due := m.e.Now() + d
	m.record(due, id, -1)
	m.e.At(due, func() {
		m.seen = append(m.seen, firing{at: m.e.Now(), cb: id, wait: -1})
		if depth == 0 {
			return
		}
		switch m.script.next(3) {
		case 0:
			m.at(Time(m.script.next(3)), depth-1)
		case 1:
			m.fire(m.script.next(len(m.sigs)))
		}
	})
}

// fire fires signal k, recording a wakeup for each of its waits still
// blocked, in registration order, as Signal.Fire schedules them.
func (m *heapModel) fire(k int) {
	for _, w := range m.waiters[k] {
		if !m.resolved[w] && !m.fired[w] {
			m.fired[w] = true
			m.record(m.e.Now(), -1, w)
		}
	}
	m.waiters[k] = m.waiters[k][:0]
	m.sigs[k].Fire(m.e)
}

// run is one proc's body: a start wakeup, then steps drawn from the
// script.
func (m *heapModel) run(p *Proc, start, steps int) {
	m.resumed(start)
	for i := 0; i < steps; i++ {
		switch m.script.next(6) {
		case 0, 1:
			d := Time(m.script.next(3))
			if d > 0 {
				w := m.newWait()
				m.record(p.Now()+d, -1, w)
				p.Wait(d)
				m.resumed(w)
			}
		case 2:
			w := m.newWait()
			m.record(p.Now(), -1, w)
			p.Yield()
			m.resumed(w)
		case 3:
			k, d := m.script.next(len(m.sigs)), Time(m.script.next(4))
			if d == 0 {
				if p.WaitSignalTimeout(m.sigs[k], 0) {
					m.t.Errorf("WaitSignalTimeout with no timeout reported a fire")
				}
				continue
			}
			w := m.newWait()
			m.blockOn[w] = m.sigs[k].name
			m.waiters[k] = append(m.waiters[k], w)
			m.record(p.Now()+d, -1, w)
			if got := p.WaitSignalTimeout(m.sigs[k], d); got != m.fired[w] {
				m.t.Errorf("wait %d: WaitSignalTimeout = %v, but the signal fired = %v", w, got, m.fired[w])
			}
			m.resumed(w)
		case 4:
			m.at(Time(m.script.next(3)), 2)
		case 5:
			m.fire(m.script.next(len(m.sigs)))
		}
	}
}

// checkEventOrder runs the scenario data describes and compares it with
// the reference walk.
func checkEventOrder(t *testing.T, data []byte) {
	t.Helper()
	m := &heapModel{t: t, e: NewEngine(), script: heapScript{data}}
	m.sigs = [2]*Signal{NewSignal("a"), NewSignal("b")}
	var limit Time
	if m.script.next(4) != 0 {
		limit = Time(1 + m.script.next(16))
	}
	m.e.Limit = limit
	procs := 2 + m.script.next(3)
	for i := 0; i < procs; i++ {
		start, steps := m.newWait(), 4+m.script.next(12)
		m.record(0, -1, start)
		m.e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) { m.run(p, start, steps) })
	}
	for i := m.script.next(4); i > 0; i-- {
		m.at(Time(m.script.next(3)), 2)
	}
	defer m.e.Shutdown()

	var limitAt Time = -1
	var eventsAtStop int64
	_, err := m.e.RunErr()
	var le *LimitError
	if errors.As(err, &le) {
		limitAt, eventsAtStop = le.At, m.e.Events()
		m.e.Limit = 0
		_, err = m.e.RunErr()
	}
	// A stop that consumed a signal wait's timeout leaves its proc parked
	// on the signal for good.
	var stuck *DeadlockError
	if !errors.As(err, &stuck) && err != nil {
		t.Fatalf("RunErr: %v", err)
	}

	// The reference walk.
	ref := slices.Clone(m.events)
	slices.SortFunc(ref, func(a, b refEvent) int {
		if a.at != b.at {
			return int(a.at - b.at)
		}
		return a.seq - b.seq
	})
	resolved := make([]bool, len(m.resolved))
	var want []firing
	var wantLimitAt Time = -1
	var wantAtStop int64
	consumed := -1
	for i, ev := range ref {
		if limit > 0 && wantLimitAt < 0 && ev.at > limit {
			wantLimitAt, wantAtStop = ev.at, int64(i+1) // consumed by the stop
			consumed = ev.wait
			continue
		}
		if ev.cb >= 0 {
			want = append(want, firing{at: ev.at, cb: ev.cb, wait: -1})
		} else if !resolved[ev.wait] {
			resolved[ev.wait] = true
			want = append(want, firing{at: ev.at, cb: -1, wait: ev.wait})
		}
	}

	if limitAt != wantLimitAt || eventsAtStop != wantAtStop {
		t.Errorf("limit %d: stop at t=%d after %d events, want t=%d after %d",
			limit, limitAt, eventsAtStop, wantLimitAt, wantAtStop)
	}
	if got := m.e.Events(); got != int64(len(ref)) {
		t.Errorf("Events() = %d, want %d scheduled", got, len(ref))
	}
	wantStuck := consumed >= 0 && !resolved[consumed] && m.blockOn[consumed] != ""
	if (stuck != nil) != wantStuck || stuck != nil &&
		(len(stuck.Blocked) != 1 || stuck.Blocked[0].Waiting != m.blockOn[consumed]) {
		t.Errorf("RunErr: %v; the stop consumed wait %d's event", err, consumed)
	}
	if !slices.Equal(m.seen, want) {
		n := 0
		for n < len(m.seen) && n < len(want) && m.seen[n] == want[n] {
			n++
		}
		t.Fatalf("firing order departs from (at, seq) order at firing %d of %d (want %d): got %v, want %v",
			n, len(m.seen), len(want), m.seen[n:min(n+4, len(m.seen))], want[n:min(n+4, len(want))])
	}
}

// TestPropertyHeapOrderMatchesReference pins the event heap against the
// reference model on seeded scenarios.
func TestPropertyHeapOrderMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 64+rng.Intn(256))
		rng.Read(data)
		t.Run(fmt.Sprint(seed), func(t *testing.T) { checkEventOrder(t, data) })
		if t.Failed() {
			return
		}
	}
}

// FuzzEventHeap checks the same oracle on fuzzer-chosen scenarios.
func FuzzEventHeap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 5, 2, 10, 3, 0, 1, 3, 1, 2, 4, 0, 5, 1, 3, 0, 2})
	f.Add([]byte("equal times everywhere, with a limit stop part way"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		checkEventOrder(t, data)
	})
}
