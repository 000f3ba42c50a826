// Package core implements the paper's primary contribution: the
// "gray-box" micro-benchmarking methodology of §2.1. Simple probes
// generate controlled address streams (the sawtooth stimulus), observe
// the average latency response, and infer the structure and parameters of
// the memory system and shell from the inflection points.
//
// The probes are written directly against the simulated hardware
// operations — the analogue of the paper's assembly-language probes — so
// measurements reflect hardware costs, not runtime overhead. Loop and
// address-calculation overhead simply is not charged, which corresponds
// to the paper subtracting it out.
//
// Each probe returns a Profile (a family of latency curves) or a Series;
// package exp turns these into the paper's figures and tables.
package core

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Point is one measurement in a latency profile.
type Point struct {
	ArraySize int64   // bytes
	Stride    int64   // bytes
	AvgNS     float64 // average per memory operation
}

// Curve is the latency-vs-stride curve for one array size.
type Curve struct {
	ArraySize int64
	Points    []Point
}

// Profile is a family of curves — one figure in the paper.
type Profile struct {
	Label  string
	Curves []Curve
}

// At returns the measured latency for an exact (size, stride), or false.
func (pr *Profile) At(size, stride int64) (float64, bool) {
	for _, c := range pr.Curves {
		if c.ArraySize != size {
			continue
		}
		for _, pt := range c.Points {
			if pt.Stride == stride {
				return pt.AvgNS, true
			}
		}
	}
	return 0, false
}

// DefaultSizes are the array sizes of Figure 1: 4 KB to 8 MB, doubling.
func DefaultSizes() []int64 {
	var out []int64
	for s := int64(4 << 10); s <= 8<<20; s *= 2 {
		out = append(out, s)
	}
	return out
}

// StridesFor returns the stride sweep for one array size: 8 bytes to
// size/2, doubling (§2.2 uses element strides from 1, on 8-byte words).
func StridesFor(size int64) []int64 {
	var out []int64
	for st := int64(8); st <= size/2; st *= 2 {
		out = append(out, st)
	}
	return out
}

// Probe is one memory operation under test on a T3D node.
type Probe struct {
	Name string
	// Setup runs once before measurement (annex configuration, warming).
	Setup func(p *sim.Proc, n *machine.Node)
	// Access performs the operation on the element at offset off within
	// the probe's array.
	Access func(p *sim.Proc, n *machine.Node, off int64)
	// Settle runs between passes, outside the timed region (drain write
	// buffers so the next pass starts clean). May be nil.
	Settle func(p *sim.Proc, n *machine.Node)
}

// SawtoothConfig controls a sweep.
type SawtoothConfig struct {
	Sizes []int64
	// MinAccesses per measured pass; small size/stride combinations loop
	// the array several times to reach it.
	MinAccesses int64
	// WarmPasses run untimed before measurement (the repeat-and-average
	// methodology; the first pass warms caches exactly as in the paper).
	WarmPasses int
	// Base is the array's base offset in (remote) memory.
	Base int64
}

// DefaultSawtoothConfig returns the Figure 1 sweep parameters.
func DefaultSawtoothConfig() SawtoothConfig {
	return SawtoothConfig{Sizes: DefaultSizes(), MinAccesses: 512, WarmPasses: 1, Base: 0}
}

// Sawtooth runs the stimulus of §2.2 against a fresh machine per (size,
// stride) point: step through an array of a given size with a given
// stride, and report the average time per operation.
func Sawtooth(newMachine func() *machine.T3D, probe Probe, cfg SawtoothConfig) Profile {
	prof := Profile{Label: probe.Name}
	for _, size := range cfg.Sizes {
		curve := Curve{ArraySize: size}
		for _, stride := range StridesFor(size) {
			avg := sawtoothPoint(newMachine, probe, cfg, size, stride)
			curve.Points = append(curve.Points, Point{size, stride, avg})
		}
		prof.Curves = append(prof.Curves, curve)
	}
	return prof
}

func sawtoothPoint(newMachine func() *machine.T3D, probe Probe, cfg SawtoothConfig, size, stride int64) float64 {
	m := newMachine()
	defer m.Eng.Shutdown() // reap any proc the probe leaves parked, which would pin the machine
	var avg float64
	m.RunOn(0, func(p *sim.Proc, n *machine.Node) {
		if probe.Setup != nil {
			probe.Setup(p, n)
		}
		perPass := size / stride
		if perPass == 0 {
			panic(fmt.Sprintf("core: stride %d exceeds array size %d", stride, size))
		}
		passes := int(cfg.MinAccesses/perPass) + 1
		onePass := func() {
			for off := int64(0); off < size; off += stride {
				probe.Access(p, n, cfg.Base+off)
			}
		}
		for w := 0; w < cfg.WarmPasses; w++ {
			onePass()
		}
		if probe.Settle != nil {
			probe.Settle(p, n)
		}
		start := p.Now()
		for r := 0; r < passes; r++ {
			onePass()
		}
		elapsed := p.Now() - start
		avg = float64(elapsed) / float64(int64(passes)*perPass) * cpu.NSPerCycle
	})
	return avg
}

// SawtoothWorkstation runs the same stimulus on the DEC Alpha
// workstation model (Figure 1, right side).
func SawtoothWorkstation(probe WSProbe, cfg SawtoothConfig) Profile {
	prof := Profile{Label: probe.Name}
	for _, size := range cfg.Sizes {
		curve := Curve{ArraySize: size}
		for _, stride := range StridesFor(size) {
			w := machine.NewWorkstation()
			//lint:allow sharedstate Workstation.Run drives a single CPU, so the writer is unique; the 2-proc weight is the pass's replicated-Run approximation
			var avg float64
			w.Run(func(p *sim.Proc, c *cpu.CPU) {
				perPass := size / stride
				passes := int(cfg.MinAccesses/perPass) + 1
				onePass := func() {
					for off := int64(0); off < size; off += stride {
						probe.Access(p, c, cfg.Base+off)
					}
				}
				for i := 0; i < cfg.WarmPasses; i++ {
					onePass()
				}
				start := p.Now()
				for r := 0; r < passes; r++ {
					onePass()
				}
				avg = float64(p.Now()-start) / float64(int64(passes)*(size/stride)) * cpu.NSPerCycle
			})
			w.Eng.Shutdown() // reap any proc the probe leaves parked, which would keep the 64 MB DRAM alive
			curve.Points = append(curve.Points, Point{size, stride, avg})
		}
		prof.Curves = append(prof.Curves, curve)
	}
	return prof
}

// WSProbe is a probe against the workstation model.
type WSProbe struct {
	Name   string
	Access func(p *sim.Proc, c *cpu.CPU, off int64)
}
