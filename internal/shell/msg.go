package shell

import (
	"fmt"

	"repro/internal/sim"
)

// Message is one user-level network message: four data words plus the
// source PE (the control word), matching the cache-line-sized transfer
// the PAL send call composes (§7.3).
type Message struct {
	Src  int
	Data [4]uint64
}

// SendMessage injects a four-word message to dest through the user-level
// send FIFO: a PAL call measured at 122 cycles (§7.3).
func (s *Shell) SendMessage(p *sim.Proc, dest int, data [4]uint64) {
	if dest < 0 || dest >= len(s.fab.Nodes) {
		panic(fmt.Sprintf("shell: message to PE %d out of range", dest))
	}
	p.Wait(s.cfg.MsgSend)
	m := Message{Src: s.pe, Data: data}
	s.fab.Net.Send(s.pe, dest, s.cfg.MsgPayload, func() {
		s.node(dest).Shell.receiveMessage(m)
	})
}

// receiveMessage models the expensive receive side: the arriving message
// interrupts the destination processor for 25 µs — interrupts serialize,
// one at a time, on the victim CPU — after which the message is placed
// in the user-level queue or, if a handler is registered, control
// switches to it for another 33 µs (§7.3). The interrupt time is also
// charged to the victim's own instruction stream at its next boundary.
func (s *Shell) receiveMessage(m Message) {
	s.stolen += s.cfg.MsgInterrupt
	start := s.intrPort.Acquire(s.eng.Now(), s.cfg.MsgInterrupt)
	s.eng.At(start+s.cfg.MsgInterrupt, func() {
		if s.handler != nil {
			s.stolen += s.cfg.MsgDispatch
			ds := s.intrPort.Acquire(s.eng.Now(), s.cfg.MsgDispatch)
			s.eng.At(ds+s.cfg.MsgDispatch, func() {
				h := s.handler
				s.eng.Spawn(fmt.Sprintf("msg-handler-pe%d", s.pe), func(p *sim.Proc) {
					h(p, m)
				})
			})
			return
		}
		s.msgs = append(s.msgs, m)
		s.msgSig.Fire(s.eng)
	})
}

// SetHandler registers a message handler; arriving messages then cost the
// interrupt plus the 33 µs handler switch and run the handler instead of
// queueing. Pass nil to return to queueing mode.
func (s *Shell) SetHandler(h func(p *sim.Proc, m Message)) { s.handler = h }

// PollMessage checks the user-level message queue, returning the oldest
// message if one is present.
func (s *Shell) PollMessage(p *sim.Proc) (Message, bool) {
	p.Wait(s.cfg.MsgPoll)
	if len(s.msgs) == 0 {
		return Message{}, false
	}
	m := s.msgs[0]
	s.msgs = s.msgs[1:]
	return m, true
}

// WaitMessage blocks until a message is available and returns it.
func (s *Shell) WaitMessage(p *sim.Proc) Message {
	sim.Await(p, &s.msgSig, func() bool { return len(s.msgs) > 0 })
	m, ok := s.PollMessage(p)
	if !ok {
		panic("shell: WaitMessage raced the queue")
	}
	return m
}
