// Package am builds poll-based "active messages" from the T3D's fast
// shared-memory primitives, as §7.4 of the paper prescribes: operating-
// system message receipt costs 25 µs, so "it is generally better to
// construct a remote message queue using the shared memory primitives and
// the fast synchronization support".
//
// Each node hosts an N-to-1 receive queue in its own memory. A sender
// draws a ticket from the destination's fetch&increment register (the
// N-to-1 serialization point), writes four data words into the ticket's
// slot with pipelined remote stores, and finally writes the header word
// that makes the slot visible. Remote writes from one sender to one
// destination commit in order (same injection FIFO, same route, same
// bank), so the header never becomes visible before the data.
//
// The receiver polls: incoming remote writes invalidate its cached copy
// of the slot line (the shell's cache-invalidate mode), so a poll is a
// local cache miss when a message has arrived and a local cache hit when
// the queue is quiet.
//
// Measured against the paper's numbers: depositing a four-word message
// costs ≈ 2.9 µs, dispatch + access on the receiver ≈ 1.5 µs (§7.4).
// The layer powers the message-driven store (storeSync), correct byte
// writes (§4.5), and remote atomic function execution.
package am

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/splitc"
)

// slotBytes is the size of one queue slot: one cache line of data plus
// one line holding the header word, keeping the header in a separate
// write-buffer entry so it drains after the data. In reliable mode the
// header line also carries the sender's sequence number and an
// end-to-end checksum, so a message damaged in flight is detectable.
const slotBytes = 64

// Header-line word offsets within a slot.
const (
	offHeader   = 32 // handler id (high 32) | source PE + 1 (low 32)
	offSeq      = 40 // per-sender sequence number (reliable mode)
	offSum      = 48 // checksum over src, id, seq, expiry, args (reliable mode)
	offDeadline = 56 // absolute expiry cycle, 0 = never (reliable mode)
)

// Config tunes the layer.
type Config struct {
	QueueSlots  int      // receive-queue capacity per node
	DepositPad  sim.Time // extra sender-side runtime cost beyond the raw ops
	DispatchPad sim.Time // extra receiver-side dispatch cost beyond the raw ops
	PollIdle    sim.Time // cycles burned per empty poll iteration

	// CreditWindow bounds a sender's unconsumed messages per
	// destination. The receiver publishes per-source consumed counters
	// in its memory; a sender whose window is exhausted re-reads its
	// own counter (one remote read) and polls its own queue while
	// waiting, so mutual senders cannot deadlock. New clamps the
	// effective window so that all possible senders together cannot
	// exceed QueueSlots. Zero disables flow control (callers then own
	// the capacity contract).
	CreditWindow int
	// Unclamped skips the QueueSlots-based safety clamp on
	// CreditWindow: all senders together may then overrun the receive
	// queue, overwriting slots whose messages were never consumed.
	// Reliable delivery still recovers every message by retransmission,
	// but goodput under incast is whatever survives the storm — this is
	// the no-backpressure baseline the overload experiments measure
	// against, not a production configuration.
	Unclamped bool

	// Reliable enables end-to-end reliable delivery over a faulty
	// fabric: per-sender sequence numbers and a checksum ride the
	// header line, the receiver deduplicates and acknowledges by
	// publishing per-sender ack words (read by senders exactly like
	// the credit counter), and unacknowledged messages are
	// retransmitted after a timeout with exponential backoff. With
	// Reliable set, the ack words double as the flow-control credits.
	Reliable bool

	// RetryTimeout is the initial ack timeout before a retransmission;
	// it doubles on each consecutive retry up to RetryBackoffMax.
	RetryTimeout    sim.Time
	RetryBackoffMax sim.Time
	// MaxRetries bounds consecutive no-progress retransmissions of the
	// same window before the layer declares the fabric dead (panics
	// with a diagnostic) rather than storming forever.
	MaxRetries int
	// DeadSlotTimeout is how long the receiver lets the head slot stay
	// empty while later tickets exist before declaring its message lost
	// in flight and skipping the slot (head-of-line recovery).
	DeadSlotTimeout sim.Time

	// Adaptive replaces the static per-destination window with an AIMD
	// congestion window driven by the network's ECN-style marks (echoed
	// through the receiver's ack word) and by retransmission timeouts.
	// The adaptive window never exceeds the static CreditWindow clamp —
	// the queue-share capacity contract still holds at full load — it
	// only shrinks below it when the fabric signals congestion. Implies
	// Reliable.
	Adaptive bool

	// MinWindow is the AIMD floor: congestion never cuts a sender below
	// this many in-flight messages, so progress is always possible.
	// Defaults to 1.
	MinWindow int

	// MarkDepth is the receive-queue congestion threshold: when the
	// backlog of issued-but-undrained slots exceeds it, every ack this
	// node publishes carries the congestion echo, exactly as if the
	// packet had crossed a hot torus link. This is the incast signal —
	// a saturated dispatch loop with an uncongested fabric. Defaults to
	// QueueSlots/4.
	MarkDepth int

	// MaxPending bounds the per-destination queue of SendAsync messages
	// waiting for window space. A full queue sheds new messages with an
	// *OverloadError carrying a retry-after hint instead of letting the
	// backlog grow without bound. Defaults to 4x the effective window.
	MaxPending int

	// MessageTTL is the per-message delivery budget: a message that has
	// not been dispatched within TTL cycles of being submitted is expired
	// — the receiver acknowledges it (so the sender retires it without a
	// retransmit storm) but does not run its handler, and a queued
	// message already past its budget is shed before transmission. Zero
	// means messages never expire.
	MessageTTL sim.Time
}

// DefaultConfig matches the paper's measured costs. Reliability is off:
// the T3D fabric the paper measures never loses a packet.
func DefaultConfig() Config {
	return Config{QueueSlots: 256, DepositPad: 60, DispatchPad: 150, PollIdle: 5, CreditWindow: 64}
}

// ReliableConfig is DefaultConfig with reliable delivery enabled and
// retransmission parameters sized for the simulator's latencies (a
// deposit is ~435 cycles, a round trip ~200).
func ReliableConfig() Config {
	c := DefaultConfig()
	c.Reliable = true
	c.RetryTimeout = 4000
	c.RetryBackoffMax = 128000
	c.MaxRetries = 20
	c.DeadSlotTimeout = 2000
	return c
}

// AdaptiveConfig is ReliableConfig with the AIMD congestion window
// enabled: under congestion senders back off toward MinWindow instead of
// filling their static queue share and storming retransmissions.
func AdaptiveConfig() Config {
	c := ReliableConfig()
	c.Adaptive = true
	c.MinWindow = 1
	return c
}

// Handler is an active-message handler executed on the receiving
// processor's thread during a poll.
type Handler func(c *splitc.Ctx, src int, args [4]uint64)

// Built-in handler ids.
const (
	// HStore writes args[1] to local address args[0] and credits
	// args[2] bytes toward StoreSync — the message-driven store (§7.1).
	HStore = 0
	// HByteWrite merges byte args[1] into local address args[0]: the
	// correct byte store of §4.5, atomic because it runs on the owner.
	HByteWrite = 1
	// HUser is the first id free for applications.
	HUser = 2
)

// DeliveryError is the fatal reliable-mode failure: a sender exhausted
// MaxRetries consecutive no-progress retransmissions, so the layer
// declares the fabric dead rather than storming forever. It is thrown as
// a panic carrying an error value, which sim.Engine.RunErr converts into
// a *sim.ProcFailure.
type DeliveryError struct {
	From, To int    // sender and unresponsive destination PE
	Retries  int    // consecutive no-progress retransmission rounds
	Unacked  int    // messages still awaiting acknowledgement
	LastAck  uint64 // last acknowledged sequence from the destination
}

func (e *DeliveryError) Error() string {
	return fmt.Sprintf("am: PE %d got no ack from PE %d after %d retransmissions (%d unacked, last ack %d)",
		e.From, e.To, e.Retries, e.Unacked, e.LastAck)
}

// relMsg is one in-flight reliable message awaiting acknowledgement.
type relMsg struct {
	seq    uint64
	id     int
	args   [4]uint64
	expiry uint64 // absolute expiry cycle, 0 = never (MessageTTL)
}

// Endpoint is one node's view of the AM layer. Every thread must create
// its endpoint at the same program point (the queue is allocated from the
// symmetric heap) and with the same configuration.
type Endpoint struct {
	c   *splitc.Ctx
	cfg Config

	queueBase int64 // local base of this node's receive queue
	head      int64 // next slot this node will poll

	// creditBase is an NProc-word array of per-source consumed counters
	// (symmetric): creditBase[src] is how many of src's messages this
	// node has dispatched, remotely readable by src. A single global
	// counter would let concurrent senders mutually inflate their credit
	// and overwrite slots the receiver has not consumed yet.
	creditBase int64
	consumed   []uint64       // receiver: messages dispatched per source
	sentTo     map[int]uint64 // messages sent per destination
	knownCred  map[int]uint64 // last credit value read per destination

	// Reliable-mode state. ackBase is an NProc-word array in local
	// memory: ackBase[src] holds the highest in-order sequence this
	// node has delivered from src, remotely readable by the sender.
	ackBase    int64
	expected   []uint64 // receiver: highest in-order seq delivered per source
	nextSeq    []uint64 // sender: last sequence assigned per destination
	lastAck    []uint64 // sender: last ack value read per destination
	unacked    [][]relMsg
	stuckHead  int64 // dead-slot tracking: head value being timed, -1 if none
	stuckSince sim.Time

	// Adaptive-mode state: the per-destination AIMD congestion window
	// (clamped to [MinWindow, CreditWindow] when used) and the bounded
	// per-destination queues of SendAsync messages awaiting window space,
	// drained oldest-first so age sets priority.
	cwnd    []float64
	pending [][]pendingMsg

	handlers map[int]Handler

	// ReceivedBytes counts data credited by HStore messages (StoreSync).
	ReceivedBytes int64

	// Stats. Retransmits counts re-sent messages, Duplicates messages
	// discarded by receiver-side dedup, Rejected messages discarded for
	// a bad checksum or a sequence gap (go-back-N), and SkippedSlots
	// head-of-line slots abandoned because their message was lost.
	Sent, Received                                  int64
	Retransmits, Duplicates, Rejected, SkippedSlots int64
	// Integrity stats: PoisonDrops counts receive-queue slots dropped
	// because the ECC pipe flagged a word uncorrectable (the sender's
	// retransmission overwrites the slot), PoisonEchoes poison bits this
	// sender saw echoed in ack words.
	PoisonDrops, PoisonEchoes int64
	// Overload stats: Marks counts congestion echoes received in ack
	// words, Shed messages rejected or dropped by load shedding, Expired
	// messages retired past their deadline without dispatch, and
	// MaxWindow is the high-water mark of the effective adaptive window
	// (never above the static CreditWindow clamp).
	Marks, Shed, Expired int64
	MaxWindow            int
}

// New creates the endpoint for c's processor. Collective: every thread
// calls it at the same point.
func New(c *splitc.Ctx, cfg Config) *Endpoint {
	if cfg.QueueSlots <= 0 {
		panic("am: queue must have at least one slot")
	}
	if cfg.Adaptive {
		cfg.Reliable = true
	}
	if senders := c.NProc() - 1; senders > 0 && cfg.CreditWindow > 0 && !cfg.Unclamped {
		if max := cfg.QueueSlots / senders; cfg.CreditWindow > max {
			cfg.CreditWindow = max
		}
		if cfg.CreditWindow < 1 {
			cfg.CreditWindow = 1
		}
	}
	if cfg.Reliable {
		// Retransmissions consume fresh tickets on top of the window, so
		// reliable mode keeps the in-flight window at half the queue
		// share per sender, and needs defaults for the retry knobs.
		senders := c.NProc() - 1
		if senders < 1 {
			senders = 1
		}
		if max := cfg.QueueSlots / (2 * senders); !cfg.Unclamped && (cfg.CreditWindow <= 0 || cfg.CreditWindow > max) {
			cfg.CreditWindow = max
		}
		if cfg.CreditWindow < 1 {
			cfg.CreditWindow = 1
		}
		if cfg.RetryTimeout <= 0 {
			cfg.RetryTimeout = 4000
		}
		if cfg.RetryBackoffMax < cfg.RetryTimeout {
			cfg.RetryBackoffMax = 32 * cfg.RetryTimeout
		}
		if cfg.MaxRetries <= 0 {
			cfg.MaxRetries = 20
		}
		if cfg.DeadSlotTimeout <= 0 {
			cfg.DeadSlotTimeout = 2000
		}
	}
	if cfg.Adaptive {
		if cfg.MinWindow < 1 {
			cfg.MinWindow = 1
		}
		if cfg.MinWindow > cfg.CreditWindow {
			cfg.MinWindow = cfg.CreditWindow
		}
		if cfg.MaxPending <= 0 {
			cfg.MaxPending = 4 * cfg.CreditWindow
		}
		if cfg.MarkDepth <= 0 {
			cfg.MarkDepth = cfg.QueueSlots / 4
		}
	}
	ep := &Endpoint{
		c:          c,
		cfg:        cfg,
		queueBase:  c.AllocAligned(int64(cfg.QueueSlots)*slotBytes, 64),
		creditBase: c.Alloc(int64(c.NProc()) * 8),
		consumed:   make([]uint64, c.NProc()),
		sentTo:     map[int]uint64{},
		knownCred:  map[int]uint64{},
		stuckHead:  -1,
		handlers:   map[int]Handler{},
	}
	if cfg.Reliable {
		ep.ackBase = c.Alloc(int64(c.NProc()) * 8)
		ep.expected = make([]uint64, c.NProc())
		ep.nextSeq = make([]uint64, c.NProc())
		ep.lastAck = make([]uint64, c.NProc())
		ep.unacked = make([][]relMsg, c.NProc())
	}
	if cfg.Adaptive {
		// Slow-start-free but conservative: begin at a few messages in
		// flight (or the whole window if it is smaller) and let AIMD
		// discover how much the fabric will bear.
		init := 4.0
		if w := float64(cfg.CreditWindow); w < init {
			init = w
		}
		ep.cwnd = make([]float64, c.NProc())
		for i := range ep.cwnd {
			ep.cwnd[i] = init
		}
		ep.pending = make([][]pendingMsg, c.NProc())
	}
	ep.handlers[HStore] = handleStore(ep)
	ep.handlers[HByteWrite] = handleByteWrite
	return ep
}

// checksum is the end-to-end integrity check carried in the header line:
// a damaged data line, a torn slot, or a corrupted header fails it. It
// covers the expiry word too, so corrupted deadline metadata can never
// expire (or un-expire) a message. The result is never zero so a present
// checksum is distinguishable from an empty slot.
func checksum(src, id int, seq, expiry uint64, args [4]uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	mix := func(v uint64) {
		h ^= v
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 29
	}
	mix(uint64(src) + 1)
	mix(uint64(id))
	mix(seq)
	mix(expiry)
	for _, a := range args {
		mix(a)
	}
	if h == 0 {
		h = 1
	}
	return h
}

// Register installs a user handler under id (>= HUser).
func (ep *Endpoint) Register(id int, h Handler) {
	if id < HUser {
		panic(fmt.Sprintf("am: handler id %d is reserved", id))
	}
	ep.handlers[id] = h
}

// Send deposits a four-word active message for handler id on node dst:
// a fetch&increment ticket, four pipelined data stores, the header store,
// and a completion wait — ≈ 2.9 µs total (§7.4).
//
//t3d:hotpath
func (ep *Endpoint) Send(dst, id int, args [4]uint64) {
	c := ep.c
	if ep.cfg.Reliable {
		//lint:allow hotalloc the reliable deposit records each message for retransmission and may build a wakeup on a window stall, both bounded by the credit window
		ep.sendReliable(dst, id, args)
		return
	}
	if w := uint64(ep.cfg.CreditWindow); w > 0 && dst != c.MyPE() {
		// Flow control: wait for the destination to publish enough
		// consumption of our messages, servicing our own queue meanwhile.
		for ep.sentTo[dst]-ep.knownCred[dst] >= w {
			c.P.CheckDeadline("am credit wait")
			ep.knownCred[dst] = c.Read(splitc.Global(dst, ep.creditBase+int64(c.MyPE())*8))
			if ep.sentTo[dst]-ep.knownCred[dst] >= w {
				ep.Poll()
			}
		}
		ep.sentTo[dst]++
	}
	ep.Sent++
	//lint:allow hotalloc fetch&increment issues its per-operation request/response event chain; the chain closures are the transaction
	ticket := c.FetchIncOn(dst, 0)
	slot := int64(ticket%uint64(ep.cfg.QueueSlots)) * slotBytes
	c.Compute(ep.cfg.DepositPad)
	base := splitc.Global(dst, ep.queueBase+slot)
	for i, v := range args {
		c.Put(base.AddLocal(int64(i)*8), v)
	}
	// Header written last: separate line, drains after the data.
	c.Put(base.AddLocal(32), headerWord(c.MyPE(), id))
	//lint:allow hotalloc Sync's drain formats only through the prefetch-pop tracer; a zero-cost disarmed Trace is ROADMAP item 5(b) (typed trace)
	c.Sync()
}

// sendReliable is the Reliable-mode deposit path: wait for window space
// (and, in adaptive mode, for earlier queued messages — age sets
// priority), then post. The ack word published by the destination
// doubles as the flow-control credit: the in-flight window is bounded by
// CreditWindow, or by the smaller AIMD window in adaptive mode.
func (ep *Endpoint) sendReliable(dst, id int, args [4]uint64) {
	born := ep.c.P.Now()
	for ep.pendingLen(dst) > 0 || len(ep.unacked[dst]) >= ep.window(dst) {
		ep.c.P.CheckDeadline("am send window")
		ep.awaitAck(dst)
	}
	ep.post(dst, id, args, born)
}

// post assigns the next sequence number, records the message for
// retransmission, stamps its expiry from its submission time, and
// transmits. Callers have already verified window space.
func (ep *Endpoint) post(dst, id int, args [4]uint64, born sim.Time) {
	ep.nextSeq[dst]++
	m := relMsg{seq: ep.nextSeq[dst], id: id, args: args}
	if ttl := ep.cfg.MessageTTL; ttl > 0 {
		m.expiry = uint64(born + ttl)
	}
	ep.unacked[dst] = append(ep.unacked[dst], m)
	ep.Sent++
	ep.transmit(dst, m)
}

// transmit deposits one reliable message: ticket, data line, then the
// header line (seq + checksum + expiry + header word) which drains as
// one packet after the data line. Sync waits only for the hardware write
// ack — the end-to-end ack arrives later via the destination's ack word.
func (ep *Endpoint) transmit(dst int, m relMsg) {
	c := ep.c
	ticket := c.FetchIncOn(dst, 0)
	slot := int64(ticket%uint64(ep.cfg.QueueSlots)) * slotBytes
	c.Compute(ep.cfg.DepositPad)
	base := splitc.Global(dst, ep.queueBase+slot)
	for i, v := range m.args {
		c.Put(base.AddLocal(int64(i)*8), v)
	}
	c.Put(base.AddLocal(offSeq), m.seq)
	c.Put(base.AddLocal(offSum), checksum(c.MyPE(), m.id, m.seq, m.expiry, m.args))
	c.Put(base.AddLocal(offDeadline), m.expiry)
	c.Put(base.AddLocal(offHeader), headerWord(c.MyPE(), m.id))
	c.Sync()
}

// refreshAck re-reads dst's ack word for this sender (the same remote
// read as a credit refresh), retires acknowledged messages, and in
// adaptive mode steps the congestion window by the echoed mark. It
// reports whether the sender may proceed: the ack advanced or nothing is
// pending. The raw word is validated with clampAckSeq before anything is
// retired: a corrupted ack can neither retire undelivered messages nor
// inflate the window.
func (ep *Endpoint) refreshAck(dst int) bool {
	if len(ep.unacked[dst]) == 0 {
		ep.pump(dst)
		return true
	}
	c := ep.c
	raw := c.Read(splitc.Global(dst, ep.ackBase+int64(c.MyPE())*8))
	ack, ce, poisonEcho := decodeAck(raw)
	if poisonEcho {
		// The receiver dropped one of our slots over an uncorrectable
		// word; the pending go-back-N retransmission overwrites it.
		ep.PoisonEchoes++
	}
	ack = clampAckSeq(ack, ep.lastAck[dst], ep.nextSeq[dst])
	progress := ack > ep.lastAck[dst]
	ep.lastAck[dst] = ack
	q := ep.unacked[dst]
	for len(q) > 0 && q[0].seq <= ack {
		q = q[1:]
	}
	ep.unacked[dst] = q
	if ep.cfg.Adaptive {
		if ce {
			ep.Marks++
			ep.cwnd[dst] = aimdStep(ep.cwnd[dst], true, ep.cfg.MinWindow, ep.cfg.CreditWindow)
		} else if progress {
			ep.cwnd[dst] = aimdStep(ep.cwnd[dst], false, ep.cfg.MinWindow, ep.cfg.CreditWindow)
		}
	}
	ep.pump(dst)
	return progress || len(q) == 0
}

// awaitAck blocks until dst acknowledges progress, servicing our own
// queue meanwhile (mutual senders must not deadlock) and parking on the
// shell's arrival signal between checks. Each timeout without progress
// retransmits the unacknowledged window (go-back-N) and doubles the
// backoff; MaxRetries consecutive dead timeouts is a fatal fabric error.
func (ep *Endpoint) awaitAck(dst int) {
	c := ep.c
	timeout := ep.cfg.RetryTimeout
	for retries := 0; ; retries++ {
		c.P.CheckDeadline("am ack wait")
		if ep.refreshAck(dst) {
			return
		}
		deadline := c.P.Now() + timeout
		for c.P.Now() < deadline {
			c.P.CheckDeadline("am ack wait")
			if ep.Poll() {
				continue // a message may carry work that unblocks dst
			}
			// Cap the park at the proc's own deadline so expiry is
			// noticed the cycle it happens, not a retry period later.
			limit := deadline
			if d := c.P.Deadline(); d != 0 && d < limit {
				limit = d
			}
			if !c.P.WaitSignalTimeout(c.Node.Shell.ArrivalSignal(), limit-c.P.Now()) && c.P.Now() >= deadline {
				break
			}
		}
		if ep.refreshAck(dst) {
			return
		}
		if ep.cfg.Adaptive {
			// A retransmission timeout is the strongest congestion signal:
			// collapse the window to the floor and rediscover capacity.
			ep.cwnd[dst] = float64(ep.cfg.MinWindow)
		}
		if retries >= ep.cfg.MaxRetries {
			// Panic with an error value: under sim.Engine.RunErr the run
			// ends with a *sim.ProcFailure wrapping this instead of
			// crashing the process.
			panic(&DeliveryError{
				From: c.MyPE(), To: dst, Retries: retries,
				Unacked: len(ep.unacked[dst]), LastAck: ep.lastAck[dst],
			})
		}
		for _, m := range ep.unacked[dst] {
			ep.Retransmits++
			ep.transmit(dst, m)
		}
		if timeout *= 2; timeout > ep.cfg.RetryBackoffMax {
			timeout = ep.cfg.RetryBackoffMax
		}
	}
}

// Flush blocks until every reliable message this endpoint has sent is
// acknowledged end-to-end by its destination, retransmitting as needed.
// In non-reliable mode it is a no-op (Sync inside Send already waited
// for the hardware acks). Call it before a barrier that assumes message
// effects are globally visible.
func (ep *Endpoint) Flush() {
	if !ep.cfg.Reliable {
		return
	}
	for dst := range ep.unacked {
		for len(ep.unacked[dst]) > 0 || ep.pendingLen(dst) > 0 {
			ep.awaitAck(dst)
		}
	}
}

// Poll checks the receive queue once, dispatching at most one message.
// It reports whether a message was handled. Dispatch plus message access
// costs ≈ 1.5 µs (§7.4).
//
//t3d:hotpath
func (ep *Endpoint) Poll() bool {
	if ep.cfg.Reliable {
		//lint:allow hotalloc the reliable dispatch path formats only in its unknown-handler misuse panic
		return ep.pollReliable()
	}
	c := ep.c
	slot := ep.queueBase + (ep.head%int64(ep.cfg.QueueSlots))*slotBytes
	header := c.Node.CPU.Load64(c.P, slot+32)
	if header == 0 {
		c.Compute(ep.cfg.PollIdle)
		return false
	}
	src := int(header&0xFFFFFFFF) - 1
	id := int(header >> 32)
	var args [4]uint64
	for i := range args {
		args[i] = c.Node.CPU.Load64(c.P, slot+int64(i)*8)
	}
	c.Node.CPU.Store64(c.P, slot+32, 0) // clear for reuse
	c.Compute(ep.cfg.DispatchPad)
	ep.head++
	ep.Received++
	// Publish consumption for the sender's flow control.
	ep.consumed[src]++
	c.Node.CPU.Store64(c.P, ep.creditBase+int64(src)*8, ep.consumed[src])
	h, ok := ep.handlers[id]
	if !ok {
		//lint:allow hotalloc unknown-handler misuse panic; registered dispatch never formats
		panic(fmt.Sprintf("am: PE %d received message for unknown handler %d", c.MyPE(), id))
	}
	h(c, src, args)
	return true
}

// pollReliable is the Reliable-mode receive path: validate the checksum,
// deliver exactly the next in-order sequence per source (go-back-N:
// duplicates and gaps are discarded without an ack), publish the ack
// word, and recover from head-of-line slots whose message was lost by
// skipping them after a grace period.
//
// The slot image is read through the checked load path: an ECC-
// uncorrectable word does not trap the polling thread (the damaged data
// belongs to the sender's message, not this thread's state) but flags the
// slot poisoned, and classifySlot turns that into a drop-and-echo so the
// sender retransmits over the fault. The non-reliable Poll above keeps
// the trapping loads — without sequence numbers there is no retransmit
// path, so poison there must stop the program.
func (ep *Endpoint) pollReliable() bool {
	c := ep.c
	slot := ep.queueBase + (ep.head%int64(ep.cfg.QueueSlots))*slotBytes
	header, hpoi := c.Node.CPU.Load64Checked(c.P, slot+offHeader)
	if header == 0 && !hpoi {
		// Tickets beyond this slot mean a sender committed a message
		// here (or will shortly). If the header line never arrives
		// within the grace period, the message was lost in flight: skip
		// the slot so later traffic is reachable; retransmission will
		// deliver the lost message into a fresh slot.
		if int64(c.Node.Shell.FI(0)) > ep.head {
			if ep.stuckHead != ep.head {
				ep.stuckHead, ep.stuckSince = ep.head, c.P.Now()
			} else if c.P.Now()-ep.stuckSince >= ep.cfg.DeadSlotTimeout {
				ep.head++
				ep.SkippedSlots++
				ep.stuckHead = -1
			}
		}
		c.Compute(ep.cfg.PollIdle)
		return false
	}
	ep.stuckHead = -1
	poisoned := hpoi
	seq, poi := c.Node.CPU.Load64Checked(c.P, slot+offSeq)
	poisoned = poisoned || poi
	sum, poi := c.Node.CPU.Load64Checked(c.P, slot+offSum)
	poisoned = poisoned || poi
	expiry, poi := c.Node.CPU.Load64Checked(c.P, slot+offDeadline)
	poisoned = poisoned || poi
	var args [4]uint64
	for i := range args {
		args[i], poi = c.Node.CPU.Load64Checked(c.P, slot+int64(i)*8)
		poisoned = poisoned || poi
	}
	c.Node.CPU.Store64(c.P, slot+offHeader, 0) // clear for reuse
	ep.head++
	c.Compute(ep.cfg.DispatchPad)
	src, id, verdict := classifySlot(c.NProc(), c.P.Now(), header, seq, sum, expiry, args, ep.expected, poisoned)
	switch verdict {
	case slotCorrupt:
		// Damaged in flight (corrupted data or header line, or a slot
		// torn by an overwrite). No ack: the sender will retransmit.
		ep.Rejected++
		return true
	case slotPoisoned:
		// An uncorrectable word surfaced while reading the slot. Drop
		// without advancing expected — the data cannot be trusted even if
		// the checksum happens to pass — and echo poison in the ack word
		// so the sender can count it; its go-back-N timeout retransmits,
		// and the fresh stores overwrite the faulted words.
		ep.PoisonDrops++
		ep.publishAck(src, ep.expected[src], true)
		return true
	case slotDuplicate:
		ep.Duplicates++ // retransmission of a delivered message
		return true
	case slotGap:
		ep.Rejected++ // gap: an earlier message was lost; await go-back-N
		return true
	case slotExpired:
		// Past its delivery budget: acknowledge so the sender retires it
		// (retransmitting a doomed message only feeds the congestion that
		// doomed it) but shed the dispatch — graceful degradation.
		ep.expected[src] = seq
		ep.publishAck(src, seq, false)
		ep.Expired++
		return true
	}
	ep.expected[src] = seq
	ep.Received++
	h, ok := ep.handlers[id]
	if !ok {
		panic(fmt.Sprintf("am: PE %d received message for unknown handler %d", c.MyPE(), id))
	}
	// Dispatch, then acknowledge by publishing the highest in-order
	// sequence — the reliable-mode credit counter, read remotely by the
	// sender. Acking only after the handler has run keeps the promise
	// exact on both sides: an acked message was dispatched, and a
	// dispatched message started inside its expiry budget.
	h(c, src, args)
	ep.publishAck(src, seq, false)
	return true
}

// PollUntil polls until cond holds, servicing messages as they arrive.
func (ep *Endpoint) PollUntil(cond func() bool) {
	for !cond() {
		ep.Poll()
	}
}

// Drain services every message currently visible and returns the count.
func (ep *Endpoint) Drain() int {
	n := 0
	for ep.Poll() {
		n++
	}
	return n
}

// StoreAsync performs a message-driven signaling store: the value lands
// in the owner's memory and the owner's StoreSync counter is credited —
// the store_async of §7.1/§7.4.
func (ep *Endpoint) StoreAsync(g splitc.GlobalPtr, v uint64) {
	ep.Send(g.PE(), HStore, [4]uint64{uint64(g.Local()), v, 8, 0})
}

// StoreSync blocks (polling) until at least n bytes have been credited by
// message-driven stores — the receiver side of message-driven execution.
func (ep *Endpoint) StoreSync(n int64) {
	ep.PollUntil(func() bool { return ep.ReceivedBytes >= n })
}

// ByteWrite performs a correct remote byte store by shipping the update
// to the owning processor (§4.5, §7.4). The owner must be polling.
func (ep *Endpoint) ByteWrite(g splitc.GlobalPtr, b byte) {
	if g.PE() == ep.c.MyPE() {
		handleByteWrite(ep.c, ep.c.MyPE(), [4]uint64{uint64(g.Local()), uint64(b)})
		return
	}
	ep.Send(g.PE(), HByteWrite, [4]uint64{uint64(g.Local()), uint64(b)})
}

func handleStore(ep *Endpoint) Handler {
	return func(c *splitc.Ctx, src int, args [4]uint64) {
		c.Node.CPU.Store64(c.P, int64(args[0]), args[1])
		ep.ReceivedBytes += int64(args[2])
	}
}

func handleByteWrite(c *splitc.Ctx, src int, args [4]uint64) {
	a := int64(args[0])
	word := a &^ 7
	v := c.Node.CPU.Load64(c.P, word)
	v = c.Node.CPU.InsertByte(c.P, v, uint(a%8), byte(args[1]))
	c.Node.CPU.Store64(c.P, word, v)
}
