package am

// This file is the overload-robustness half of the reliable layer: the
// AIMD congestion window that replaces the static per-destination clamp
// when Config.Adaptive is set, and the congestion-echo ack path. The
// control loop is the classic ECN one mapped onto the T3D's primitives:
// the network marks data packets that queued past the mark threshold
// (net.Config.MarkThreshold), the receiving shell latches the mark per
// source, the receiver echoes it in the high bit of the ack word it
// already publishes, and the sender halves its window on an echo (or
// collapses it to MinWindow on a retransmission timeout) and grows it by
// one message per clean round trip otherwise.

// window is the effective in-flight bound for dst: the static
// CreditWindow clamp, tightened by the AIMD congestion window in
// adaptive mode. It never exceeds the static clamp — the queue-share
// capacity contract of New holds at any load — and never drops below
// MinWindow, so progress is always possible.
func (ep *Endpoint) window(dst int) int {
	w := ep.cfg.CreditWindow
	if ep.cfg.Adaptive {
		if aw := int(ep.cwnd[dst]); aw < w {
			w = aw
		}
		if w < ep.cfg.MinWindow {
			w = ep.cfg.MinWindow
		}
	}
	if w > ep.MaxWindow {
		ep.MaxWindow = w
	}
	return w
}

// publishAck writes this node's ack word for src: the highest in-order
// delivered sequence, plus — in adaptive mode — the congestion echo, and
// in any reliable mode the poison echo (a slot from src was dropped over
// an ECC-uncorrectable word). Congestion is experienced in two places
// and either sets the echo: a hot torus link (the shell's per-source
// mark latch, fed by net.MarkThreshold) or this node's own receive queue
// running deeper than MarkDepth (tickets issued ahead of the slots
// drained — the incast case, where the fabric is fine but the dispatch
// loop is the saturated resource).
func (ep *Endpoint) publishAck(src int, seq uint64, poison bool) {
	ce := false
	if ep.cfg.Adaptive {
		ce = ep.c.Node.Shell.TakeCongestionMark(src)
		if int64(ep.c.Node.Shell.FI(0))-ep.head > int64(ep.cfg.MarkDepth) {
			ce = true
		}
	}
	ep.c.Node.CPU.Store64(ep.c.P, ep.ackBase+int64(src)*8, ackWord(seq, ce, poison))
}
