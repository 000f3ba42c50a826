package net

import (
	"errors"
	"fmt"
)

// ErrPartitioned reports that the degraded torus has no surviving path
// between two nodes. It is a permanent condition — hard link faults never
// heal — so callers must fail the operation rather than retry.
var ErrPartitioned = errors.New("net: torus partitioned")

// PartitionError is the concrete no-path failure for one (src, dst) pair.
// It unwraps to ErrPartitioned so errors.Is works across layers.
type PartitionError struct {
	Src, Dst int
}

func (e *PartitionError) Error() string {
	return fmt.Sprintf("net: no route from PE %d to PE %d: torus partitioned", e.Src, e.Dst)
}

func (e *PartitionError) Unwrap() error { return ErrPartitioned }

// FailLink permanently kills the link leaving node in direction dir
// (0..5: +x,-x,+y,-y,+z,-z). The route cache is invalidated so future
// sends are recomputed around the dead link, and every in-flight data
// packet whose route crosses it is force-dropped — the loss is reported
// to the reliability layer through the normal FaultDrop verdict, which
// retransmits over the recomputed route. Killing a dead link is a no-op.
func (n *Network) FailLink(node, dir int) {
	if node < 0 || node >= n.nodes || dir < 0 || dir >= numDirs {
		panic(fmt.Sprintf("net: FailLink(%d,%d) out of range", node, dir))
	}
	if n.dead[node][dir] {
		return
	}
	n.dead[node][dir] = true
	n.deadLinks++
	n.invalidateRoutes()
	for _, pk := range n.flights {
		if pk.forced {
			continue
		}
		for _, hop := range pk.route {
			if hop[0] == node && hop[1] == dir {
				pk.forced = true
				n.HardDropped++
				break
			}
		}
	}
}

// LinkDead reports whether the link leaving node in direction dir has
// hard-faulted.
func (n *Network) LinkDead(node, dir int) bool { return n.dead[node][dir] }

// DeadLinks returns the number of permanently failed links.
func (n *Network) DeadLinks() int { return n.deadLinks }

// invalidateRoutes drops every cached route after a topology change.
func (n *Network) invalidateRoutes() {
	for i := range n.routeState {
		n.routeState[i] = routeUnknown
		n.routeCache[i] = nil
	}
}

const (
	routeUnknown  uint8 = iota
	routeKnown          // cached, same as the fault-free path
	routeRerouted       // cached, detours around at least one dead link
	routeNone           // no surviving path: partitioned pair
)

// RouteErr returns the route from src to dst on the (possibly degraded)
// torus, or a *PartitionError when no path survives. Routes are cached
// per (src, dst) — the common case is a map lookup with zero allocation —
// and the cache is invalidated by FailLink. The returned slice is shared;
// callers must not mutate it.
//
//t3d:hotpath
func (n *Network) RouteErr(src, dst int) ([][2]int, error) {
	idx := src*n.nodes + dst
	switch n.routeState[idx] {
	case routeKnown, routeRerouted:
		return n.routeCache[idx], nil
	case routeNone:
		//lint:allow hotalloc partitioned-pair failure path; the verdict is cached, so the error is built once per dead pair per lookup
		return nil, &PartitionError{Src: src, Dst: dst}
	}
	//lint:allow hotalloc route construction runs once per (src, dst) per topology change; every later lookup hits the cache
	r, ok := n.computeRoute(src, dst)
	if !ok {
		n.routeState[idx] = routeNone
		//lint:allow hotalloc partitioned-pair failure path discovered on the cache miss
		return nil, &PartitionError{Src: src, Dst: dst}
	}
	state := routeKnown
	//lint:allow hotalloc reroute classification runs once per (src, dst) per topology change, on the cache-miss path only
	if n.deadLinks > 0 && n.dimOrderBroken(src, dst) {
		// The pair's natural dimension-order path crosses a dead link:
		// its packets travel a detour, even if the detour is no longer
		// (on a 2-ring the reverse link reaches the same neighbor).
		state = routeRerouted
	}
	n.routeState[idx] = state
	n.routeCache[idx] = r
	return r, nil
}

// dimOrderBroken reports whether the fault-free dimension-order path from
// src to dst crosses a hard-faulted link.
func (n *Network) dimOrderBroken(src, dst int) bool {
	for _, hop := range n.dimOrderRoute(src, dst) {
		if n.dead[hop[0]][hop[1]] {
			return true
		}
	}
	return false
}

// Reachable reports whether a route from src to dst survives.
func (n *Network) Reachable(src, dst int) bool {
	_, err := n.RouteErr(src, dst)
	return err == nil
}

// Partitioned reports whether any ordered node pair has lost all paths —
// the machine-level "is the torus disconnected" diagnostic.
func (n *Network) Partitioned() bool {
	if n.deadLinks == 0 {
		return false
	}
	for s := 0; s < n.nodes; s++ {
		for d := 0; d < n.nodes; d++ {
			if !n.Reachable(s, d) {
				return true
			}
		}
	}
	return false
}

// MinHops returns the fault-free dimension-order hop count from src to
// dst — the baseline against which rerouted-hop inflation is measured.
func (n *Network) MinHops(src, dst int) int {
	cur := n.Coord(src)
	want := n.Coord(dst)
	hops := 0
	for d := 0; d < 3; d++ {
		size := n.cfg.Shape[d]
		fwd := (want[d] - cur[d] + size) % size
		back := (cur[d] - want[d] + size) % size
		if fwd <= back {
			hops += fwd
		} else {
			hops += back
		}
	}
	return hops
}

// computeRoute builds a route on the degraded torus. With no dead links
// it is plain dimension-order routing. Otherwise it first tries greedy
// per-hop deflection — at each hop, take the first dimension still
// needing correction whose link is alive, trying the short way around
// the ring and then the long way — and falls back to a BFS route table
// over the surviving links when deflection dead-ends. Both passes are
// fully deterministic: fixed dimension order, fixed direction
// preference, lexicographic BFS tie-break.
func (n *Network) computeRoute(src, dst int) ([][2]int, bool) {
	if src == dst {
		return nil, true
	}
	if n.deadLinks == 0 {
		return n.dimOrderRoute(src, dst), true
	}
	if r, ok := n.deflectRoute(src, dst); ok {
		return r, true
	}
	return n.bfsRoute(src, dst)
}

func (n *Network) dimOrderRoute(src, dst int) [][2]int {
	var route [][2]int
	cur := n.Coord(src)
	want := n.Coord(dst)
	for d := 0; d < 3; d++ {
		for cur[d] != want[d] {
			next, dir := step(cur[d], want[d], n.cfg.Shape[d], d)
			route = append(route, [2]int{n.Index(cur), dir})
			cur[d] = next
		}
	}
	return route
}

// deflectRoute is the greedy degraded-mode router. It can ping-pong
// around an awkward fault pattern, so progress is bounded: past the
// bound the caller falls back to BFS, which is exact.
func (n *Network) deflectRoute(src, dst int) ([][2]int, bool) {
	var route [][2]int
	cur := n.Coord(src)
	want := n.Coord(dst)
	limit := 2*(n.cfg.Shape[0]+n.cfg.Shape[1]+n.cfg.Shape[2]) + 4
	for steps := 0; n.Index(cur) != n.Index(want); steps++ {
		if steps >= limit {
			return nil, false
		}
		moved := false
		for d := 0; d < 3 && !moved; d++ {
			if cur[d] == want[d] {
				continue
			}
			node := n.Index(cur)
			size := n.cfg.Shape[d]
			next, dir := step(cur[d], want[d], size, d)
			if !n.dead[node][dir] {
				route = append(route, [2]int{node, dir})
				cur[d] = next
				moved = true
				break
			}
			// Deflect: the long way around this ring. On a 2-ring both
			// directions cross the same physical wire pair, so this only
			// helps when the ring is longer.
			altDir := dir ^ 1
			if size > 2 && !n.dead[node][altDir] {
				altNext := (cur[d] + 1) % size
				if altDir&1 == 1 {
					altNext = (cur[d] - 1 + size) % size
				}
				route = append(route, [2]int{node, altDir})
				cur[d] = altNext
				moved = true
			}
		}
		if !moved {
			return nil, false
		}
	}
	return route, true
}

// bfsRoute finds a shortest path over the surviving links. Neighbor
// expansion follows the fixed direction order 0..5, so equal-length
// paths resolve identically on every run.
func (n *Network) bfsRoute(src, dst int) ([][2]int, bool) {
	prev := make([]int32, n.nodes) // predecessor node, -1 = unvisited
	via := make([]int8, n.nodes)   // direction taken out of prev
	for i := range prev {
		prev[i] = -1
	}
	prev[src] = int32(src)
	queue := []int{src}
	for len(queue) > 0 && prev[dst] == -1 {
		cur := queue[0]
		queue = queue[1:]
		c := n.Coord(cur)
		for dir := 0; dir < numDirs; dir++ {
			if n.dead[cur][dir] {
				continue
			}
			d := dir / 2
			size := n.cfg.Shape[d]
			if size == 1 {
				continue // self-loop dimension
			}
			nc := c
			if dir&1 == 0 {
				nc[d] = (c[d] + 1) % size
			} else {
				nc[d] = (c[d] - 1 + size) % size
			}
			next := n.Index(nc)
			if next == cur || prev[next] != -1 {
				continue
			}
			prev[next] = int32(cur)
			via[next] = int8(dir)
			queue = append(queue, next)
		}
	}
	if prev[dst] == -1 {
		return nil, false
	}
	// Walk back from dst, then reverse.
	var rev [][2]int
	for at := dst; at != src; at = int(prev[at]) {
		rev = append(rev, [2]int{int(prev[at]), int(via[at])})
	}
	route := make([][2]int, len(rev))
	for i := range rev {
		route[i] = rev[len(rev)-1-i]
	}
	return route, true
}

// trackFlight registers a data packet in flight over route.
func (n *Network) trackFlight(pk *packet, route [][2]int) {
	pk.route, pk.flight = route, len(n.flights)
	n.flights = append(n.flights, pk)
}

// untrackFlight removes a landed data packet, moving the last flight
// into its slot.
func (n *Network) untrackFlight(pk *packet) {
	last := n.flights[len(n.flights)-1]
	n.flights[pk.flight], last.flight = last, pk.flight
	n.flights = n.flights[:len(n.flights)-1]
}

// RerouteStats reports how many packets took a non-minimal path and the
// total extra hops — the rerouted-hop inflation metric.
func (n *Network) RerouteStats() (packets, extraHops int64) {
	return n.ReroutedPackets, n.ExtraHops
}
