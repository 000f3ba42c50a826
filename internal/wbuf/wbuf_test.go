package wbuf

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// recordingSink drains each entry after a fixed delay and records the
// order and time of drains.
type recordingSink struct {
	eng     *sim.Engine
	delay   sim.Time
	drained []drainRec
}

type drainRec struct {
	e  Entry
	at sim.Time
}

func (s *recordingSink) BeginDrain(e *Entry) sim.Time { return s.eng.Now() + s.delay }

func (s *recordingSink) FinishDrain(e *Entry) {
	s.drained = append(s.drained, drainRec{*e, s.eng.Now()})
}

func setup(delay sim.Time) (*sim.Engine, *Buffer, *recordingSink) {
	eng := sim.NewEngine()
	sink := &recordingSink{eng: eng, delay: delay}
	return eng, New(eng, 4, sink), sink
}

func TestMergeSameLine(t *testing.T) {
	eng, b, sink := setup(100)
	eng.Spawn("cpu", func(p *sim.Proc) {
		b.PushWrite(p, 0x100, []byte{1, 2, 3, 4, 5, 6, 7, 8})
		b.PushWrite(p, 0x108, []byte{9, 10, 11, 12, 13, 14, 15, 16})
	})
	eng.Run()
	if b.Merges != 1 {
		t.Fatalf("Merges = %d, want 1", b.Merges)
	}
	if len(sink.drained) != 1 {
		t.Fatalf("drained %d entries, want 1 merged entry", len(sink.drained))
	}
	e := sink.drained[0].e
	if e.Mask != 0xFFFF {
		t.Errorf("merged mask = %#x, want 0xFFFF", e.Mask)
	}
	if e.Data[0] != 1 || e.Data[8] != 9 || e.Data[15] != 16 {
		t.Errorf("merged data wrong: % d", e.Data[:16])
	}
}

func TestNoMergeAcrossLines(t *testing.T) {
	eng, b, sink := setup(10)
	eng.Spawn("cpu", func(p *sim.Proc) {
		b.PushWrite(p, 0x100, []byte{1})
		b.PushWrite(p, 0x120, []byte{2}) // next line
	})
	eng.Run()
	if len(sink.drained) != 2 {
		t.Fatalf("drained %d entries, want 2", len(sink.drained))
	}
}

func TestFullBufferStalls(t *testing.T) {
	eng, b, _ := setup(50)
	var pushTimes []sim.Time
	eng.Spawn("cpu", func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			b.PushWrite(p, int64(i)*64, []byte{byte(i)}) // distinct lines
			pushTimes = append(pushTimes, p.Now())
		}
	})
	eng.Run()
	// First 4 pushes fill the buffer instantly at t=0; pushes 5 and 6 wait
	// for drains at t=50 and t=100.
	for i, want := range []sim.Time{0, 0, 0, 0, 50, 100} {
		if pushTimes[i] != want {
			t.Errorf("push %d at t=%d, want %d", i, pushTimes[i], want)
		}
	}
	if b.FullStalls != 2 {
		t.Errorf("FullStalls = %d, want 2", b.FullStalls)
	}
}

func TestFIFODrainOrder(t *testing.T) {
	eng, b, sink := setup(10)
	eng.Spawn("cpu", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			b.PushWrite(p, int64(i)*64, []byte{byte(i)})
		}
	})
	eng.Run()
	for i := 0; i < 4; i++ {
		if sink.drained[i].e.LineAddr != int64(i)*64 {
			t.Fatalf("drain %d = line %#x, want %#x", i, sink.drained[i].e.LineAddr, i*64)
		}
	}
}

func TestNoMergeIntoDrainingEntry(t *testing.T) {
	eng, b, sink := setup(100)
	eng.Spawn("cpu", func(p *sim.Proc) {
		b.PushWrite(p, 0x100, []byte{1})
		p.Wait(10) // drain of first entry is now in progress
		b.PushWrite(p, 0x108, []byte{2})
	})
	eng.Run()
	if len(sink.drained) != 2 {
		t.Fatalf("drained %d entries, want 2 (no merge into draining entry)", len(sink.drained))
	}
}

func TestWaitEmpty(t *testing.T) {
	eng, b, _ := setup(30)
	var emptyAt sim.Time
	eng.Spawn("cpu", func(p *sim.Proc) {
		b.PushWrite(p, 0, []byte{1})
		b.PushWrite(p, 64, []byte{2})
		b.WaitEmpty(p)
		emptyAt = p.Now()
	})
	eng.Run()
	if emptyAt != 60 {
		t.Errorf("WaitEmpty returned at %d, want 60", emptyAt)
	}
}

func TestConflictDetectionExactLine(t *testing.T) {
	eng, b, _ := setup(40)
	var conflictSeen, synonymSeen bool
	var resumeAt sim.Time
	eng.Spawn("cpu", func(p *sim.Proc) {
		b.PushWrite(p, 0x100, []byte{1, 2, 3, 4})
		conflictSeen = b.ConflictsWith(0x102)
		// A synonym: same 128 MB offset, different annex bits (bit 27+).
		synonymSeen = b.ConflictsWith(0x100 | 1<<27)
		b.WaitNoConflict(p, 0x102)
		resumeAt = p.Now()
	})
	eng.Run()
	if !conflictSeen {
		t.Error("conflict on same line not detected")
	}
	if synonymSeen {
		t.Error("synonym falsely detected as conflict; hazard must be preserved")
	}
	if resumeAt != 40 {
		t.Errorf("WaitNoConflict resumed at %d, want 40", resumeAt)
	}
}

func TestFetchEntriesDoNotMerge(t *testing.T) {
	eng, b, sink := setup(10)
	eng.Spawn("cpu", func(p *sim.Proc) {
		b.PushFetch(p, 0x100)
		b.PushFetch(p, 0x108) // same line, still a distinct request
	})
	eng.Run()
	if len(sink.drained) != 2 {
		t.Fatalf("drained %d fetch entries, want 2", len(sink.drained))
	}
	if sink.drained[0].e.Kind != KindFetch || sink.drained[0].e.FetchAddr != 0x100 {
		t.Errorf("first fetch entry = %+v", sink.drained[0].e)
	}
}

// TestEntryBytes: an entry's valid bytes come out as maximal runs, in
// ascending order.
func TestEntryBytes(t *testing.T) {
	for _, tc := range []struct {
		mask uint32
		want [][2]int
	}{
		{0, nil},
		{1<<4 | 1<<9, [][2]int{{4, 5}, {9, 10}}},
		{0xFF00FF00, [][2]int{{8, 16}, {24, 32}}},
		{0xFFFFFFFF, [][2]int{{0, 32}}},
		{0x80000001, [][2]int{{0, 1}, {31, 32}}},
	} {
		e := &Entry{Kind: KindWrite, Mask: tc.mask}
		var got [][2]int
		for lo, hi := e.Run(0); lo < hi; lo, hi = e.Run(hi) {
			got = append(got, [2]int{lo, hi})
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("mask %#x: runs %v, want %v", tc.mask, got, tc.want)
		}
	}
}

func TestCrossLineWritePanics(t *testing.T) {
	eng, b, _ := setup(10)
	defer func() {
		if r := recover(); r == nil {
			t.Error("cross-line write did not panic")
		}
	}()
	eng.Spawn("cpu", func(p *sim.Proc) {
		b.PushWrite(p, 0x11C, make([]byte, 8)) // crosses 0x120
	})
	eng.Run()
}

func TestPropertyMergedBytesMatchProgramOrder(t *testing.T) {
	// Property: for any sequence of single-byte stores into one line,
	// the drained entry holds the last value written per offset.
	f := func(writes []uint8) bool {
		eng, b, sink := setup(1)
		want := map[int64]byte{}
		eng.Spawn("cpu", func(p *sim.Proc) {
			for i, w := range writes {
				off := int64(w % LineSize)
				val := byte(i + 1)
				b.PushWrite(p, 0x200+off, []byte{val})
				want[0x200+off] = val
			}
			b.WaitEmpty(p)
		})
		eng.Run()
		got := map[int64]byte{}
		for _, rec := range sink.drained {
			e := rec.e
			for lo, hi := e.Run(0); lo < hi; lo, hi = e.Run(hi) {
				for i := lo; i < hi; i++ {
					got[e.LineAddr+int64(i)] = e.Data[i]
				}
			}
		}
		if len(got) != len(want) {
			return false
		}
		for a, v := range want {
			if got[a] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestDrainIsEventDriven pins the drain's events: a push into an idle
// buffer schedules one drain step, a slot that frees later schedules
// one finish, and a slot that frees at once finishes inline, as does
// the next entry's drain after a finish.
func TestDrainIsEventDriven(t *testing.T) {
	for _, tc := range []struct {
		delay  sim.Time
		events int64 // the proc's start, one step, then one finish per entry if delay > 0
	}{
		{delay: 10, events: 1 + 1 + 3},
		{delay: 0, events: 1 + 1},
	} {
		eng, b, sink := setup(tc.delay)
		eng.Spawn("cpu", func(p *sim.Proc) {
			for i := 0; i < 3; i++ {
				b.PushWrite(p, int64(i)*64, []byte{byte(i)})
			}
		})
		eng.Run()
		if len(sink.drained) != 3 || !b.Empty() {
			t.Fatalf("delay %d: drained %d entries, buffer empty %v", tc.delay, len(sink.drained), b.Empty())
		}
		for i, rec := range sink.drained {
			if want := sim.Time(i+1) * tc.delay; rec.at != want || rec.e.LineAddr != int64(i)*64 {
				t.Errorf("delay %d: drain %d = line %#x at t=%d, want %#x at t=%d",
					tc.delay, i, rec.e.LineAddr, rec.at, i*64, want)
			}
		}
		if got := eng.Events(); got != tc.events {
			t.Errorf("delay %d: %d events, want %d", tc.delay, got, tc.events)
		}
	}
}
