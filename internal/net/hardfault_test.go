package net

import (
	"errors"
	"testing"

	"repro/internal/sim"
)

func degradedNet(t *testing.T, nodes int) *Network {
	t.Helper()
	return New(sim.NewEngine(), DefaultConfig(nodes))
}

// nextNode follows one hop: the node reached by leaving `node` in
// direction `dir` — an independent reimplementation of the torus
// geometry used to validate routes hop by hop.
func nextNode(n *Network, node, dir int) int {
	c := n.Coord(node)
	d := dir / 2
	size := n.Config().Shape[d]
	if dir&1 == 0 {
		c[d] = (c[d] + 1) % size
	} else {
		c[d] = (c[d] - 1 + size) % size
	}
	return n.Index(c)
}

// checkRoute walks a route hop by hop: every hop must leave the node the
// previous hop arrived at, must not cross a dead link, and the walk must
// end at dst.
func checkRoute(t *testing.T, n *Network, src, dst int, route [][2]int) {
	t.Helper()
	at := src
	for i, hop := range route {
		if hop[0] != at {
			t.Fatalf("route %d->%d hop %d leaves node %d, but packet is at %d", src, dst, i, hop[0], at)
		}
		if n.LinkDead(hop[0], hop[1]) {
			t.Fatalf("route %d->%d hop %d crosses dead link (%d,%d)", src, dst, i, hop[0], hop[1])
		}
		at = nextNode(n, hop[0], hop[1])
	}
	if at != dst {
		t.Fatalf("route %d->%d ends at node %d", src, dst, at)
	}
}

func TestRouteCacheReturnsSameSlice(t *testing.T) {
	// Satellite: per-send route allocation is gone. The cache must hand
	// back the identical slice on every lookup, with zero allocations on
	// the hot path.
	n := degradedNet(t, 8)
	r1, err := n.RouteErr(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := n.RouteErr(0, 7)
	if len(r1) > 0 && &r1[0] != &r2[0] {
		t.Error("second lookup returned a different slice: route not cached")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := n.RouteErr(0, 7); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("cached RouteErr allocates %.1f objects per call, want 0", allocs)
	}
}

func TestFailLinkInvalidatesRouteCache(t *testing.T) {
	n := degradedNet(t, 8) // 2x2x2
	route, err := n.RouteErr(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(route) == 0 {
		t.Fatal("adjacent pair has empty route")
	}
	// Kill the first link the cached route uses; the recomputed route
	// must avoid it and still arrive.
	n.FailLink(route[0][0], route[0][1])
	fresh, err := n.RouteErr(0, 1)
	if err != nil {
		t.Fatalf("reroute failed on a single dead link: %v", err)
	}
	checkRoute(t, n, 0, 1, fresh)
}

func TestFailLinkIdempotent(t *testing.T) {
	n := degradedNet(t, 8)
	n.FailLink(0, 0)
	n.FailLink(0, 0)
	if n.DeadLinks() != 1 {
		t.Errorf("DeadLinks = %d after double-failing one link, want 1", n.DeadLinks())
	}
	if !n.LinkDead(0, 0) {
		t.Error("LinkDead(0,0) = false after FailLink")
	}
}

func TestDegradedRoutesStayValidAllPairs(t *testing.T) {
	// Kill a handful of links on two shapes and verify every surviving
	// pair still gets a valid route (deflection or BFS fallback).
	for _, nodes := range []int{8, 12} { // 2x2x2 and 3x2x2
		n := degradedNet(t, nodes)
		n.FailLink(0, 0)
		n.FailLink(1, 2)
		n.FailLink(3, 1)
		for s := 0; s < nodes; s++ {
			for d := 0; d < nodes; d++ {
				route, err := n.RouteErr(s, d)
				if err != nil {
					// A partition is acceptable only if BFS really found
					// no path; with 3 dead links out of 3 per-node dims
					// these shapes stay connected.
					t.Fatalf("nodes=%d: %d->%d partitioned: %v", nodes, s, d, err)
				}
				checkRoute(t, n, s, d, route)
			}
		}
	}
}

func TestIsolatedNodeReturnsPartitionError(t *testing.T) {
	// Kill every outgoing link of node 0: no route can leave it. The
	// router must return an explicit *PartitionError — never hang.
	n := degradedNet(t, 8)
	for dir := 0; dir < 6; dir++ {
		n.FailLink(0, dir)
	}
	_, err := n.RouteErr(0, 7)
	if err == nil {
		t.Fatal("RouteErr found a route out of a fully isolated node")
	}
	var pe *PartitionError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T, want *PartitionError", err)
	}
	if pe.Src != 0 || pe.Dst != 7 {
		t.Errorf("PartitionError = %+v, want src 0 dst 7", pe)
	}
	if !errors.Is(err, ErrPartitioned) {
		t.Error("err does not unwrap to ErrPartitioned")
	}
	if !n.Partitioned() {
		t.Error("Partitioned() = false with an isolated node")
	}
	// The negative result is cached too: the second lookup must hit the
	// routeNone state and still error.
	if _, err2 := n.RouteErr(0, 7); err2 == nil {
		t.Error("cached lookup of a partitioned pair returned a route")
	}
	// Traffic INTO the isolated node still has no return path for acks,
	// but pure forwarding through other nodes is unaffected.
	if _, err := n.RouteErr(1, 7); err != nil {
		t.Errorf("unrelated pair 1->7 partitioned: %v", err)
	}
}

func TestReroutedStateCountsBrokenDimOrderPaths(t *testing.T) {
	// On a 2-ring the detour has equal length, so hop inflation cannot
	// detect rerouting; the semantic routeRerouted state must. Kill the
	// +x link out of node 0 on a 2x2x2 torus and route to its x-neighbor.
	n := degradedNet(t, 8)
	dim := n.dimOrderRoute(0, 1)
	if len(dim) != 1 {
		t.Fatalf("expected single-hop dim-order route 0->1, got %v", dim)
	}
	n.FailLink(dim[0][0], dim[0][1])
	if _, err := n.RouteErr(0, 1); err != nil {
		t.Fatalf("single dead link partitioned a 2-ring pair: %v", err)
	}
	if n.routeState[0*n.nodes+1] != routeRerouted {
		t.Errorf("route state = %d, want routeRerouted", n.routeState[0*n.nodes+1])
	}
	// A pair whose natural path avoids the dead link stays routeKnown.
	if _, err := n.RouteErr(2, 3); err != nil {
		t.Fatal(err)
	}
	if n.routeState[2*n.nodes+3] != routeKnown {
		t.Errorf("untouched pair state = %d, want routeKnown", n.routeState[2*n.nodes+3])
	}
}

func TestFailLinkDropsInFlightData(t *testing.T) {
	// A link that dies under a data packet claims it: the packet lands
	// FaultDrop. A control packet on the same route is never faulted,
	// nor is a data packet in flight on a live route, and the next data
	// packet, which reuses the landed packet's recycled record, must not
	// inherit its forced drop.
	eng := sim.NewEngine()
	n := New(eng, DefaultConfig(8)) // 2x2x2
	route := n.Route(0, 1)
	var first, second, third Fault = -1, -1, -1
	control := false
	n.SendData(0, 1, 32, func(f Fault, _ bool) {
		first = f
		// On a live route, sent from the delivery itself, so it takes
		// the record this packet just released.
		n.SendData(2, 3, 32, func(f Fault, _ bool) { third = f })
	})
	// Longer, so it lands after the first and moves in the flight list.
	n.SendData(4, 5, 64, func(f Fault, _ bool) { second = f })
	n.Send(0, 1, 32, func() { control = true })
	n.FailLink(route[0][0], route[0][1])
	eng.Run()
	if first != FaultDrop {
		t.Errorf("in-flight data packet landed %v, want drop", first)
	}
	if n.HardDropped != 1 {
		t.Errorf("HardDropped = %d, want 1", n.HardDropped)
	}
	if !control {
		t.Error("control packet on the failed route was not delivered")
	}
	if second != FaultNone || third != FaultNone {
		t.Errorf("data packets on live routes landed %v and %v (the second on a recycled record), want none", second, third)
	}
	if len(n.flights) != 0 {
		t.Errorf("%d flights still tracked after every packet landed", len(n.flights))
	}
}
