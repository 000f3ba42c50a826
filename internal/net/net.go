// Package net models the CRAY-T3D interconnect: a 3-D torus with
// dimension-order routing.
//
// The paper's measurements see the network two ways: as a small per-hop
// latency (13–20 ns, 2–3 cycles per hop, §4.2 — all headline measurements
// are to an adjacent node) and as a bandwidth-limiting pipe once bulk
// mechanisms stream packets through it (§6). The model therefore charges
// a fixed latency per hop and occupies each traversed link for a
// header + payload duration, so both effects emerge.
//
// The network is payload-agnostic: callers provide a delivery callback
// and the network invokes it at the arrival time. All shell semantics
// (what a remote read does at the far end) live in package shell.
package net

import (
	"fmt"

	"repro/internal/sim"
)

// Config describes the torus.
type Config struct {
	Shape [3]int // nodes per dimension; product = node count

	HopLatency sim.Time // cycles for a packet head to cross one hop
	HeaderOcc  sim.Time // link occupancy of the packet header
	FlitOcc    sim.Time // link occupancy per 8 bytes of payload

	// MarkThreshold is the ECN-style congestion signal: a data packet
	// that queues for more than this many cycles behind earlier traffic
	// at any single link on its route is delivered marked
	// (congestion experienced). Marking is observation only — timing is
	// unchanged — so software flow control can react before queues
	// collapse into retransmit storms. 0 disables marking.
	MarkThreshold sim.Time
}

// DefaultConfig returns torus parameters matching the paper: 2 cycles per
// hop (13 ns, the low end of the measured 2–3), with link bandwidth high
// enough that the shell injection ports and the BLT engine, not the
// fabric, are the bottlenecks for the single-sender microbenchmarks.
func DefaultConfig(nodes int) Config {
	// A non-positive count yields the zero shape rather than a panic, so
	// NewChecked can reject DefaultConfig(bad) with an error; the
	// unchecked New still fails fast on the invalid shape.
	shape, _ := ShapeForErr(nodes)
	return Config{
		Shape:      shape,
		HopLatency: 2,
		HeaderOcc:  1,
		FlitOcc:    2,
		// ~14 queued line-sized packets on one link: well past the point
		// where a hotspot is forming but early enough for senders to back
		// off before slots overwrite and retransmits storm.
		MarkThreshold: 128,
	}
}

// Validate checks the configuration for construction-time errors: a
// non-positive shape dimension, a node-count mismatch (when nodes > 0),
// or negative timing parameters. Catching these here turns a cryptic
// panic deep inside a run into an immediate, actionable error.
func (c Config) Validate(nodes int) error {
	for d, s := range c.Shape {
		if s <= 0 {
			return fmt.Errorf("net: shape %v has non-positive dimension %d", c.Shape, d)
		}
	}
	if n := c.Shape[0] * c.Shape[1] * c.Shape[2]; nodes > 0 && n != nodes {
		return fmt.Errorf("net: shape %v yields %d nodes, want %d", c.Shape, n, nodes)
	}
	if c.HopLatency < 0 || c.HeaderOcc < 0 || c.FlitOcc < 0 {
		return fmt.Errorf("net: negative timing parameter (hop=%d header=%d flit=%d)",
			c.HopLatency, c.HeaderOcc, c.FlitOcc)
	}
	if c.MarkThreshold < 0 {
		return fmt.Errorf("net: negative congestion mark threshold %d", c.MarkThreshold)
	}
	return nil
}

// ShapeFor factors n into three near-equal power-of-two-friendly
// dimensions. n must be positive; use ShapeForErr to get the failure as
// an error instead of a panic.
func ShapeFor(n int) [3]int {
	s, err := ShapeForErr(n)
	if err != nil {
		panic(err.Error())
	}
	return s
}

// ShapeForErr is ShapeFor with error reporting for non-positive counts.
func ShapeForErr(n int) ([3]int, error) {
	if n <= 0 {
		return [3]int{}, fmt.Errorf("net: node count must be positive, got %d", n)
	}
	shape := [3]int{1, 1, 1}
	rem := n
	// Repeatedly peel the smallest prime factor onto the smallest dim.
	for rem > 1 {
		f := smallestFactor(rem)
		small := 0
		for d := 1; d < 3; d++ {
			if shape[d] < shape[small] {
				small = d
			}
		}
		shape[small] *= f
		rem /= f
	}
	return shape, nil
}

func smallestFactor(n int) int {
	for f := 2; f*f <= n; f++ {
		if n%f == 0 {
			return f
		}
	}
	return n
}

// direction indexes a node's six outgoing links.
const numDirs = 6

// Fault is the verdict on a data packet's payload after crossing the
// fabric. The T3D's low-level flow control still delivers and
// acknowledges the packet envelope on time — a transient fault damages
// only the payload, which is exactly the failure a software reliability
// layer must detect end to end.
type Fault int

const (
	// FaultNone: the payload arrived intact.
	FaultNone Fault = iota
	// FaultDrop: the payload was lost in flight; nothing lands.
	FaultDrop
	// FaultCorrupt: the payload arrived bit-flipped.
	FaultCorrupt
)

func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultDrop:
		return "drop"
	case FaultCorrupt:
		return "corrupt"
	}
	return fmt.Sprintf("fault(%d)", int(f))
}

// FaultHook decides the fate of one data packet, consulted once per
// packet as it is sent. Control packets (read requests, responses,
// acknowledgements) never consult the hook.
type FaultHook interface {
	PacketFault(src, dst, payloadBytes int) Fault
}

// Network is the torus fabric.
type Network struct {
	eng   *sim.Engine
	cfg   Config
	nodes int
	links [][numDirs]sim.Resource
	busy  [][numDirs]sim.Time // accumulated occupancy per link
	hook  FaultHook

	// Degraded-mode routing state (route.go): permanently dead links,
	// the per-(src,dst) route cache, and in-flight data packets that a
	// dying link can retroactively claim.
	dead       [][numDirs]bool
	deadLinks  int
	routeCache [][][2]int
	routeState []uint8
	flights    []*packet

	free *packet // recycled packet records

	// Stats.
	Packets, PayloadBytes int64
	Dropped, Corrupted    int64
	// MarkedPackets counts data packets delivered with the congestion-
	// experienced mark: they queued past MarkThreshold at a hot link.
	MarkedPackets int64
	// HardDropped counts in-flight packets lost to a link hard-fault,
	// Unroutable packets abandoned because no path survived, and
	// ReroutedPackets/ExtraHops the non-minimal-path inflation.
	HardDropped, Unroutable    int64
	ReroutedPackets, ExtraHops int64
}

// New builds the fabric, panicking on an invalid configuration; use
// NewChecked to get the validation failure as an error.
func New(eng *sim.Engine, cfg Config) *Network {
	n, err := NewChecked(eng, cfg)
	if err != nil {
		panic(err.Error())
	}
	return n
}

// NewChecked builds the fabric, rejecting invalid configurations with an
// error at construction time.
func NewChecked(eng *sim.Engine, cfg Config) (*Network, error) {
	if err := cfg.Validate(0); err != nil {
		return nil, err
	}
	n := cfg.Shape[0] * cfg.Shape[1] * cfg.Shape[2]
	return &Network{
		eng:        eng,
		cfg:        cfg,
		nodes:      n,
		links:      make([][numDirs]sim.Resource, n),
		busy:       make([][numDirs]sim.Time, n),
		dead:       make([][numDirs]bool, n),
		routeCache: make([][][2]int, n*n),
		routeState: make([]uint8, n*n),
	}, nil
}

// SetFaultHook installs (or, with nil, removes) the fault injector
// consulted for every data packet.
func (n *Network) SetFaultHook(h FaultHook) { n.hook = h }

// Nodes returns the node count.
func (n *Network) Nodes() int { return n.nodes }

// Config returns the fabric parameters.
func (n *Network) Config() Config { return n.cfg }

// Coord maps a node index to torus coordinates.
func (n *Network) Coord(pe int) [3]int {
	s := n.cfg.Shape
	return [3]int{pe % s[0], (pe / s[0]) % s[1], pe / (s[0] * s[1])}
}

// Index maps torus coordinates to a node index.
func (n *Network) Index(c [3]int) int {
	s := n.cfg.Shape
	return c[0] + s[0]*(c[1]+s[1]*c[2])
}

// step returns the next coordinate and link direction moving from x toward
// y along dimension d, taking the shorter way around the torus.
func step(x, y, size, dim int) (next, dir int) {
	fwd := (y - x + size) % size
	back := (x - y + size) % size
	if fwd <= back {
		return (x + 1) % size, 2 * dim // positive direction
	}
	return (x - 1 + size) % size, 2*dim + 1
}

// Route returns the route from src to dst as a list of (node, direction)
// link traversals: dimension-order on a healthy torus, rerouted around
// dead links on a degraded one. An empty route means src == dst. Routes
// are cached per (src, dst) — repeated sends do not reallocate — and the
// cache is invalidated on topology change (FailLink). Route panics with
// a *PartitionError if no path survives; use RouteErr to get the failure
// as an error. The returned slice is shared: callers must not mutate it.
func (n *Network) Route(src, dst int) [][2]int {
	r, err := n.RouteErr(src, dst)
	if err != nil {
		panic(err)
	}
	return r
}

// HopCount returns the number of links on the route from src to dst.
func (n *Network) HopCount(src, dst int) int { return len(n.Route(src, dst)) }

// occupancy returns how long a packet with the given payload holds each
// link it traverses.
func (n *Network) occupancy(payloadBytes int) sim.Time {
	flits := sim.Time((payloadBytes + 7) / 8)
	return n.cfg.HeaderOcc + flits*n.cfg.FlitOcc
}

// Send injects a control packet at src at the current time and invokes
// deliver at the moment its tail arrives at dst. The head advances
// HopLatency per hop; each traversed link is occupied for the packet's
// full length, so concurrent streams through a link serialize. Control
// packets are never faulted.
func (n *Network) Send(src, dst, payloadBytes int, deliver func()) {
	n.send(src, dst, payloadBytes, deliver, nil)
}

// SendData injects a data-carrying packet: identical timing to Send, but
// the fault hook (if any) may damage the payload in flight, and deliver
// receives the verdict along with whether the packet queued past
// MarkThreshold at a hot link — the ECN-style congestion-experienced
// mark the overload-protection layer feeds back to senders. The packet
// envelope always arrives — transient faults hit the data path, not the
// hardware flow control — so callers must decide what a dropped or
// corrupted payload means at the far end.
func (n *Network) SendData(src, dst, payloadBytes int, deliver func(f Fault, marked bool)) {
	n.send(src, dst, payloadBytes, nil, deliver)
}

// packet is one packet in flight, from send to delivery. Records are
// recycled through Network.free, and arrive, the arrival event's
// continuation, is built once with the record, so a send allocates
// nothing once enough records exist for the traffic in flight.
type packet struct {
	n      *Network
	ctl    func()                     // control packet delivery
	data   func(f Fault, marked bool) // data packet delivery
	fault  Fault
	marked bool
	// A data packet in flight sits in n.flights at index flight (-1
	// when untracked), so a link dying under it can claim it: forced
	// drops it at delivery.
	route  [][2]int
	flight int
	forced bool
	arrive func()
	next   *packet
}

// newPacket takes a record from the free list, building one when the
// list is empty.
//
//t3d:hotpath
func (n *Network) newPacket(ctl func(), data func(Fault, bool)) *packet {
	pk := n.free
	if pk == nil {
		//lint:allow hotalloc built once per packet in flight at the high-water mark, then recycled
		pk = &packet{n: n}
		pk.arrive = pk.arrived
	} else {
		n.free = pk.next
	}
	pk.ctl, pk.data = ctl, data
	pk.fault, pk.marked, pk.route, pk.flight, pk.forced = FaultNone, false, nil, -1, false
	return pk
}

// arrived delivers the packet. The record goes back on the free list
// before the delivery runs, because a delivery often sends again.
func (pk *packet) arrived() {
	n := pk.n
	f, marked, ctl, data := pk.fault, pk.marked, pk.ctl, pk.data
	if pk.flight >= 0 {
		if pk.forced && f != FaultDrop {
			f = FaultDrop
			n.Dropped++
		}
		n.untrackFlight(pk)
	}
	pk.next, n.free = n.free, pk
	if data != nil {
		data(f, marked)
	} else {
		ctl()
	}
}

func (n *Network) send(src, dst, payloadBytes int, ctl func(), data func(Fault, bool)) {
	faultable := data != nil
	n.Packets++
	n.PayloadBytes += int64(payloadBytes)
	occ := n.occupancy(payloadBytes)
	t := n.eng.Now()
	route, err := n.RouteErr(src, dst)
	//lint:allow errtaxonomy the only failure here is partition; it is deliberately translated into the loss (FaultDrop) and deadlock reporting paths below
	if err != nil {
		// No surviving path. A data packet is reported lost so the
		// reliability layer's retries can exhaust into an explicit
		// failure; a control packet is abandoned, which surfaces as a
		// structured DeadlockError rather than a silent hang.
		n.Unroutable++
		if faultable {
			n.Dropped++
			pk := n.newPacket(nil, data)
			pk.fault = FaultDrop
			n.eng.At(t+1, pk.arrive)
		}
		return
	}
	if n.deadLinks > 0 && n.routeState[src*n.nodes+dst] == routeRerouted {
		n.ReroutedPackets++
		if extra := len(route) - n.MinHops(src, dst); extra > 0 {
			n.ExtraHops += int64(extra)
		}
	}
	marked := false
	for _, hop := range route {
		link := &n.links[hop[0]][hop[1]]
		start := link.Acquire(t, occ)
		// Congestion-experienced: the packet queued behind earlier
		// traffic at this link for longer than the mark threshold.
		if thr := n.cfg.MarkThreshold; faultable && thr > 0 && start-t > thr {
			marked = true
		}
		t = start + n.cfg.HopLatency
		n.busy[hop[0]][hop[1]] += occ
	}
	if marked {
		n.MarkedPackets++
	}
	pk := n.newPacket(ctl, data)
	pk.marked = marked
	if faultable && n.hook != nil {
		pk.fault = n.hook.PacketFault(src, dst, payloadBytes)
		switch pk.fault {
		case FaultDrop:
			n.Dropped++
		case FaultCorrupt:
			n.Corrupted++
		}
	}
	// Data packets stay registered while in flight so a link dying under
	// them can claim them retroactively (FailLink).
	if faultable {
		n.trackFlight(pk, route)
	}
	// Tail arrives one packet-length after the head on the final hop.
	arrival := t + occ
	if len(route) == 0 {
		arrival = t + 1 // self-send: loopback in the shell
	}
	n.eng.At(arrival, pk.arrive)
}

// LinkBacklog reports how many cycles of already-committed traffic a new
// packet arriving now would queue behind on the link leaving node in
// direction dir — the instantaneous congestion depth behind the marking
// decision.
func (n *Network) LinkBacklog(node, dir int) sim.Time {
	if b := n.links[node][dir].FreeAt() - n.eng.Now(); b > 0 {
		return b
	}
	return 0
}

// LinkBusy returns the accumulated occupancy of the link leaving node in
// direction dir (0..5: +x,-x,+y,-y,+z,-z).
func (n *Network) LinkBusy(node, dir int) sim.Time { return n.busy[node][dir] }
