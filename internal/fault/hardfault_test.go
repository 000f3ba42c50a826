package fault

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

func TestHardFaultScheduleDeterministic(t *testing.T) {
	cfg := Config{
		Seed:           99,
		HardLinkFaults: 3,
		HardNodeFaults: 2,
		Horizon:        50000,
	}
	a := NewSchedule(cfg, 8)
	b := NewSchedule(cfg, 8)
	if !reflect.DeepEqual(a.HardLinks, b.HardLinks) {
		t.Errorf("hard-link plans differ:\n%v\n%v", a.HardLinks, b.HardLinks)
	}
	if !reflect.DeepEqual(a.HardNodes, b.HardNodes) {
		t.Errorf("hard-node plans differ:\n%v\n%v", a.HardNodes, b.HardNodes)
	}
	if len(a.HardLinks) != 3 || len(a.HardNodes) != 2 {
		t.Fatalf("plan sizes = %d links, %d nodes; want 3 and 2", len(a.HardLinks), len(a.HardNodes))
	}
	for _, hl := range a.HardLinks {
		if hl.Node < 0 || hl.Node >= 8 || hl.Dir < 0 || hl.Dir >= 6 || hl.At >= 50000 {
			t.Errorf("hard link %+v outside machine/horizon bounds", hl)
		}
	}
	for _, hn := range a.HardNodes {
		if hn.PE < 0 || hn.PE >= 8 || hn.At >= 50000 {
			t.Errorf("hard node %+v outside machine/horizon bounds", hn)
		}
	}
}

func TestNodeCrashWithoutHandlerPanics(t *testing.T) {
	// Fail-stop without recovery has no correct continuation: a node
	// hard-fault firing with no OnNodeCrash handler must stop the run
	// loudly instead of silently continuing with stale memory.
	m := machine.New(machine.DefaultConfig(2))
	in := Inject(m, Config{Seed: 3, HardNodeFaults: 1, Horizon: 100})
	if in.OnNodeCrash != nil {
		t.Fatal("injector grew a default crash handler; this test needs none")
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("crash with no handler did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "no crash handler") {
			t.Errorf("panic %v does not explain the missing handler", r)
		}
	}()
	m.Run(func(p *sim.Proc, n *machine.Node) {})
}
