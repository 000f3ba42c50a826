package machine

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/sim"
)

// drainScheduleEvents is how many events the drain-schedule program
// takes on a 4-PE machine.
const drainScheduleEvents = 740

// drainProgram meets its PE's write buffer in every way a program can:
// merging stores, a full-buffer stall, MB, a load stalled behind a
// buffered store to its line, remote puts waited out on the status bit,
// fetch hints popped from the prefetch FIFO, and an annex rebind behind
// buffered remote stores. note logs each step with the time it ends.
func drainProgram(p *sim.Proc, n *Node, note func(step string, v uint64)) {
	pe := n.PE
	right, left := (pe+1)%4, (pe+3)%4
	base := int64(0x1000 * (pe + 1))

	// Four words of one line merge into one entry.
	for i := int64(0); i < 4; i++ {
		n.CPU.Store64(p, base+i*8, uint64(pe)<<8|uint64(i))
		note("merge", uint64(i))
	}
	// Six stores a line apart fill the four entries and stall.
	for i := int64(0); i < 6; i++ {
		n.CPU.Store64(p, base+0x100+i*32, uint64(pe)<<8|0x10|uint64(i))
		note("stride", uint64(i))
	}
	n.CPU.MB(p)
	note("mb", 0)
	// The line is not cached, so the load misses and waits for the
	// buffered store to the same line to drain.
	n.CPU.Store64(p, base+0x400, 0xC0FFEE00|uint64(pe))
	note("store", 0)
	note("conflict-load", n.CPU.Load64(p, base+0x400))

	// Remote puts to the right-hand neighbour.
	n.Shell.SetAnnex(p, 1, right, false)
	note("annex", uint64(right))
	for i := int64(0); i < 6; i++ {
		n.CPU.Store64(p, addr.Make(1, putOff(pe, i)), uint64(pe)<<16|0x100|uint64(i))
		note("put", uint64(i))
	}
	n.CPU.MB(p)
	note("mb", 0)
	n.Shell.WaitWritesComplete(p)
	note("acked", 0)

	// Fetch hints into the left-hand neighbour's put area, where its
	// own left-hand neighbour writes, and one into local memory.
	n.Shell.SetAnnex(p, 2, left, false)
	note("annex", uint64(left))
	for i := int64(0); i < 6; i++ {
		n.CPU.FetchHint(p, addr.Make(2, putOff((pe+2)%4, i)))
		note("fetch", uint64(i))
	}
	n.CPU.FetchHint(p, base+8)
	note("fetch", 6)
	n.CPU.MB(p)
	note("mb", 0)
	for i := 0; i < 7; i++ {
		note("pop", n.Shell.PopPrefetch(p))
	}

	// Rebind annex 1 behind two buffered remote stores: they must still
	// reach the old target.
	n.CPU.Store64(p, addr.Make(1, 0x9000+0x40*int64(pe)), 0xAA00|uint64(pe))
	note("put", 6)
	n.CPU.Store64(p, addr.Make(1, 0x9020+0x40*int64(pe)), 0xBB00|uint64(pe))
	note("put", 7)
	n.Shell.SetAnnex(p, 1, left, false)
	note("annex", uint64(left))
	n.CPU.Store64(p, addr.Make(1, 0x9800+0x40*int64(pe)), 0xCC00|uint64(pe))
	note("put", 8)
	n.CPU.MB(p)
	note("mb", 0)
	n.Shell.WaitWritesComplete(p)
	note("acked", 0)
}

// putOff is the offset of PE pe's i-th remote put: three words of one
// line, then three lines apart.
func putOff(pe int, i int64) int64 {
	if i < 3 {
		return 0x8000 + 0x100*int64(pe) + i*8
	}
	return 0x8000 + 0x100*int64(pe) + i*32
}

// TestDrainSchedule pins when every PE's operations end while four PEs
// drain their write buffers into local memory and into each other, the
// values they read, what memory holds afterwards, and the event count.
// Refresh the golden file with UPDATE_GOLDEN=1 only for a timing change
// made on purpose.
func TestDrainSchedule(t *testing.T) {
	m := New(DefaultConfig(4))
	logs := make([][]string, len(m.Nodes))
	m.Run(func(p *sim.Proc, n *Node) {
		drainProgram(p, n, func(step string, v uint64) {
			logs[n.PE] = append(logs[n.PE], fmt.Sprintf("pe%d %-13s t=%-5d v=%#x", n.PE, step, p.Now(), v))
		})
	})
	var sb strings.Builder
	for _, l := range logs {
		for _, line := range l {
			sb.WriteString(line + "\n")
		}
	}
	for _, n := range m.Nodes {
		for _, r := range [][2]int64{{0x1000, 0x5000}, {0x8000, 0x8400}, {0x9000, 0x9900}} {
			for off := r[0]; off < r[1]; off += 8 {
				if v := n.DRAM.Read64(off); v != 0 {
					fmt.Fprintf(&sb, "pe%d mem[%#x]=%#x\n", n.PE, off, v)
				}
			}
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "drain_schedule.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if want, err := os.ReadFile(path); err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1): %v", err)
	} else if got != string(want) {
		t.Errorf("drain schedule differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
	if ev := m.Eng.Events(); ev != drainScheduleEvents {
		t.Errorf("Events() = %d, want %d", ev, drainScheduleEvents)
	}
}
