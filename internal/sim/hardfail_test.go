package sim

import (
	"strings"
	"testing"
)

// The watchdog's configuration contract: a live probe with a
// non-positive interval or stall count is a programming error the
// engine must reject loudly, not a silently disabled watchdog.
func TestWatchdogRejectsNonPositiveConfig(t *testing.T) {
	probe := func() int64 { return 0 }
	cases := []struct {
		name     string
		interval Time
		stalls   int
	}{
		{"zero interval", 0, 3},
		{"negative interval", -10, 3},
		{"zero stalls", 100, 0},
		{"negative stalls", 100, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("SetWatchdog(%d, %d, probe) did not panic", tc.interval, tc.stalls)
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, "watchdog") {
					t.Errorf("panic %v does not mention the watchdog", r)
				}
			}()
			NewEngine().SetWatchdog(tc.interval, tc.stalls, probe)
		})
	}
}

func TestWatchdogNilProbeDisables(t *testing.T) {
	// A nil probe disables the watchdog regardless of the other
	// arguments — the documented way to switch it off.
	e := NewEngine()
	e.SetWatchdog(0, 0, nil)
	e.Spawn("worker", func(p *Proc) { p.Wait(10) })
	if end, err := e.RunErr(); err != nil || end != 10 {
		t.Fatalf("RunErr = (%d, %v), want (10, nil)", end, err)
	}
}

// A hard-faulted node stops participating in its collectives. The procs
// it leaves behind, parked on a rendezvous that can no longer complete,
// must surface as a structured deadlock report naming the survivors —
// not as a hang.
func TestDeadlockReportAfterProcDeath(t *testing.T) {
	e := NewEngine()
	rendezvous := NewSignal("barrier.epoch1")
	e.Spawn("pe0", func(p *Proc) { p.WaitSignal(rendezvous) })
	e.Spawn("pe1", func(p *Proc) { p.WaitSignal(rendezvous) })
	// pe2 is the failing node: it "dies" at t=50 without signalling.
	e.Spawn("pe2", func(p *Proc) { p.Wait(50) })
	_, err := e.RunErr()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v (%T), want *DeadlockError", err, err)
	}
	if len(de.Blocked) != 2 {
		t.Fatalf("Blocked = %v, want the two surviving procs", de.Blocked)
	}
	for i, want := range []string{"pe0", "pe1"} {
		if de.Blocked[i].Name != want {
			t.Errorf("Blocked[%d].Name = %q, want %q", i, de.Blocked[i].Name, want)
		}
		if de.Blocked[i].Waiting != "barrier.epoch1" {
			t.Errorf("Blocked[%d] parked on %q, want barrier.epoch1", i, de.Blocked[i].Waiting)
		}
	}
	// The dead proc finished cleanly, so it must NOT appear blocked.
	if strings.Contains(err.Error(), "pe2") {
		t.Errorf("diagnostic %q names the completed proc pe2", err.Error())
	}
}

// An error-valued proc panic — the shape every modeled hardware failure
// uses — must come back from RunErr as a *ProcFailure that unwraps to
// the original error, so callers can errors.Is across layers.
func TestRunErrWrapsErrorPanics(t *testing.T) {
	e := NewEngine()
	boom := &testHardError{}
	e.Spawn("victim", func(p *Proc) {
		p.Wait(7)
		panic(boom)
	})
	e.Spawn("bystander", func(p *Proc) { p.Wait(3) })
	_, err := e.RunErr()
	pf, ok := err.(*ProcFailure)
	if !ok {
		t.Fatalf("err = %v (%T), want *ProcFailure", err, err)
	}
	if pf.Proc != "victim" {
		t.Errorf("ProcFailure.Proc = %q, want victim", pf.Proc)
	}
	if pf.Unwrap() != boom {
		t.Errorf("Unwrap() = %v, want the original error", pf.Unwrap())
	}
}

// The same holds for an event callback (a device model's drain step),
// whichever proc's park runs it: RunErr reports a *ProcFailure with no
// proc name, and the parked proc's body never sees the panic.
func TestRunErrWrapsCallbackErrorPanics(t *testing.T) {
	e := NewEngine()
	boom := &testHardError{}
	var seen any
	e.Spawn("holder", func(p *Proc) {
		defer func() { seen = recover() }()
		e.At(5, func() { panic(boom) })
		p.Wait(10)
	})
	_, err := e.RunErr()
	pf, ok := err.(*ProcFailure)
	if !ok {
		t.Fatalf("err = %v (%T), want *ProcFailure", err, err)
	}
	if pf.Proc != "" || pf.Unwrap() != boom {
		t.Errorf("ProcFailure = %+v, want no proc name and the original error", pf)
	}
	if got, want := err.Error(), "sim: event callback failed: modeled hardware failure"; got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
	e.Shutdown()
	if seen != nil {
		t.Errorf("the proc body recovered %v", seen)
	}
}

type testHardError struct{}

func (*testHardError) Error() string { return "modeled hardware failure" }
