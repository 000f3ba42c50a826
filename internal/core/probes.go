package core

import (
	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Standard probes, named after the paper's experiments. Remote probes
// address node 1 through annex register 1, matching the paper's
// adjacent-node setup (§4.2).

// LocalRead is the §2.2 read probe.
func LocalRead() Probe {
	return Probe{
		Name: "local read",
		Access: func(p *sim.Proc, n *machine.Node, off int64) {
			n.CPU.Load64(p, off)
		},
	}
}

// LocalWrite is the §2.3 write probe.
func LocalWrite() Probe {
	return Probe{
		Name: "local write",
		Access: func(p *sim.Proc, n *machine.Node, off int64) {
			n.CPU.Store64(p, off, 1)
		},
		Settle: func(p *sim.Proc, n *machine.Node) { n.CPU.MB(p) },
	}
}

func annexSetup(cached bool) func(p *sim.Proc, n *machine.Node) {
	return func(p *sim.Proc, n *machine.Node) {
		n.Shell.SetAnnex(p, 1, 1, cached)
	}
}

// RemoteReadUncached is the §4.2 uncached read probe.
func RemoteReadUncached() Probe {
	return Probe{
		Name:  "remote read (uncached)",
		Setup: annexSetup(false),
		Access: func(p *sim.Proc, n *machine.Node, off int64) {
			n.CPU.Load64(p, addr.Make(1, off))
		},
	}
}

// RemoteReadCached is the §4.2 cached read probe.
func RemoteReadCached() Probe {
	return Probe{
		Name:  "remote read (cached)",
		Setup: annexSetup(true),
		Access: func(p *sim.Proc, n *machine.Node, off int64) {
			n.CPU.Load64(p, addr.Make(1, off))
		},
	}
}

// RemoteWriteBlocking is the §4.3 blocking write probe: store, memory
// barrier, poll for the acknowledgement.
func RemoteWriteBlocking() Probe {
	return Probe{
		Name:  "remote write (blocking)",
		Setup: annexSetup(false),
		Access: func(p *sim.Proc, n *machine.Node, off int64) {
			n.CPU.Store64(p, addr.Make(1, off), 1)
			n.CPU.MB(p)
			n.Shell.WaitWritesComplete(p)
		},
	}
}

// RemoteWriteNonblocking is the §5.3 pipelined store probe.
func RemoteWriteNonblocking() Probe {
	return Probe{
		Name:  "remote write (non-blocking)",
		Setup: annexSetup(false),
		Access: func(p *sim.Proc, n *machine.Node, off int64) {
			n.CPU.Store64(p, addr.Make(1, off), 1)
		},
		Settle: func(p *sim.Proc, n *machine.Node) {
			n.CPU.MB(p)
			n.Shell.WaitWritesComplete(p)
		},
	}
}

// WSRead is the workstation read probe (Figure 1, right).
func WSRead() WSProbe {
	return WSProbe{
		Name: "workstation read",
		Access: func(p *sim.Proc, c *cpu.CPU, off int64) {
			c.Load64(p, off)
		},
	}
}

// WSWrite is the workstation write probe.
func WSWrite() WSProbe {
	return WSProbe{
		Name: "workstation write",
		Access: func(p *sim.Proc, c *cpu.CPU, off int64) {
			c.Store64(p, off, 1)
		},
	}
}

// PrefetchPoint is one measurement of the §5.2 grouped-prefetch probe.
type PrefetchPoint struct {
	Group      int
	AvgNSPerOp float64
}

// PrefetchProbe measures the average latency per element of issuing
// `group` prefetches, popping them, and storing the results locally
// (Figure 6). With group < 4 a memory barrier precedes the pops (§5.2).
func PrefetchProbe(newMachine func() *machine.T3D, groups []int, reps int) []PrefetchPoint {
	var out []PrefetchPoint
	for _, g := range groups {
		m := newMachine()
		var avg float64
		m.RunOn(0, func(p *sim.Proc, n *machine.Node) {
			n.Shell.SetAnnex(p, 1, 1, false)
			dst := int64(1 << 20)
			runGroup := func(base int64) {
				for i := 0; i < g; i++ {
					n.CPU.FetchHint(p, addr.Make(1, base+int64(i)*8))
				}
				n.CPU.MB(p) // hints must leave the processor before pops
				for i := 0; i < g; i++ {
					v := n.Shell.PopPrefetch(p)
					n.CPU.Store64(p, dst+int64(i)*8, v)
				}
			}
			runGroup(0) // warm
			n.CPU.MB(p)
			start := p.Now()
			for r := 0; r < reps; r++ {
				runGroup(int64(r*g) * 8 % (8 << 10))
			}
			avg = float64(p.Now()-start) / float64(reps*g) * cpu.NSPerCycle
		})
		m.Eng.Shutdown() // reap the write-buffer procs before the next group's machine
		out = append(out, PrefetchPoint{g, avg})
	}
	return out
}

// BandwidthPoint is one measurement of the §6.2 bulk-transfer comparison.
type BandwidthPoint struct {
	Bytes int64
	MBs   float64
}

// Bandwidth converts an elapsed cycle count for n bytes into MB/s.
func Bandwidth(n int64, cycles sim.Time) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(n) / (float64(cycles) * cpu.NSPerCycle * 1e-9) / 1e6
}
