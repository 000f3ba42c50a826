package core

import (
	"testing"

	"repro/internal/machine"
)

func newM() *machine.T3D { return machine.New(machine.DefaultConfig(2)) }

// smallCfg keeps unit-test sweeps fast; the full Figure 1 sweep is
// `t3dbench -experiment fig1 -full`.
func smallCfg() SawtoothConfig {
	return SawtoothConfig{
		Sizes:       []int64{4 << 10, 16 << 10, 64 << 10},
		MinAccesses: 256,
		WarmPasses:  1,
	}
}

func TestSawtoothLocalReadShape(t *testing.T) {
	prof := Sawtooth(newM, LocalRead(), smallCfg())
	// 4 KB array: all hits, one cycle.
	if ns, ok := prof.At(4<<10, 8); !ok || ns > 8 {
		t.Errorf("4K/8 = %.1f ns, want ≈ 6.7 (cache hit)", ns)
	}
	// 64 KB at line stride: every access misses: ≈ 145 ns.
	if ns, ok := prof.At(64<<10, 32); !ok || ns < 130 || ns > 165 {
		t.Errorf("64K/32 = %.1f ns, want ≈ 145", ns)
	}
	// Latency grows from 8-byte to 32-byte strides beyond the cache.
	a, _ := prof.At(64<<10, 8)
	b, _ := prof.At(64<<10, 32)
	if a >= b {
		t.Errorf("64K: stride 8 (%.1f) should be cheaper than stride 32 (%.1f)", a, b)
	}
}

func TestSawtoothLocalWriteShape(t *testing.T) {
	prof := Sawtooth(newM, LocalWrite(), smallCfg())
	small, _ := prof.At(64<<10, 8)
	line, _ := prof.At(64<<10, 32)
	if small < 15 || small > 27 {
		t.Errorf("write at stride 8 = %.1f ns, want ≈ 20 (merging)", small)
	}
	if line < 28 || line > 42 {
		t.Errorf("write at stride 32 = %.1f ns, want ≈ 35", line)
	}
}

func TestSawtoothRemoteReadShape(t *testing.T) {
	cfg := SawtoothConfig{Sizes: []int64{8 << 10}, MinAccesses: 128, WarmPasses: 1}
	prof := Sawtooth(newM, RemoteReadUncached(), cfg)
	if ns, ok := prof.At(8<<10, 8); !ok || ns < 560 || ns > 680 {
		t.Errorf("remote uncached 8K/8 = %.1f ns, want ≈ 610", ns)
	}
	cprof := Sawtooth(newM, RemoteReadCached(), SawtoothConfig{
		Sizes: []int64{64 << 10}, MinAccesses: 128, WarmPasses: 1})
	// At line stride every cached access is a fill: ≈ 765 ns.
	if ns, ok := cprof.At(64<<10, 32); !ok || ns < 700 || ns > 830 {
		t.Errorf("remote cached 64K/32 = %.1f ns, want ≈ 765", ns)
	}
	// Cached reads prefetch line-mates: stride 8 is far cheaper.
	a, _ := cprof.At(64<<10, 8)
	b, _ := cprof.At(64<<10, 32)
	if a >= b/2 {
		t.Errorf("cached stride-8 (%.1f) should amortize the fill (stride-32 %.1f)", a, b)
	}
}

func TestInferMemoryT3D(t *testing.T) {
	// The full gray-box loop: run the probe, infer the machine.
	cfg := SawtoothConfig{
		Sizes:       []int64{4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 256 << 10},
		MinAccesses: 256,
		WarmPasses:  1,
	}
	prof := Sawtooth(newM, LocalRead(), cfg)
	inf := InferMemory(&prof)
	if inf.CacheSize != 8<<10 {
		t.Errorf("inferred cache size = %d, want 8K", inf.CacheSize)
	}
	if inf.LineSize != 32 {
		t.Errorf("inferred line size = %d, want 32", inf.LineSize)
	}
	if inf.MemoryNS < 130 || inf.MemoryNS > 165 {
		t.Errorf("inferred memory time = %.1f ns, want ≈ 145", inf.MemoryNS)
	}
	if !inf.DirectMapped {
		t.Error("T3D L1 must be inferred direct-mapped")
	}
	if inf.HasL2 {
		t.Error("T3D has no L2; inference found one")
	}
}

func TestInferMemoryWorkstation(t *testing.T) {
	cfg := SawtoothConfig{
		Sizes:       []int64{4 << 10, 8 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20},
		MinAccesses: 128,
		WarmPasses:  1,
	}
	prof := SawtoothWorkstation(WSRead(), cfg)
	inf := InferMemory(&prof)
	if inf.CacheSize != 8<<10 {
		t.Errorf("inferred L1 size = %d, want 8K", inf.CacheSize)
	}
	if !inf.HasL2 {
		t.Error("workstation L2 not detected")
	}
	if inf.MemoryNS < 250 || inf.MemoryNS > 360 {
		t.Errorf("workstation memory time = %.1f ns, want ≈ 300", inf.MemoryNS)
	}
}

func TestWriteBufferDepthEstimate(t *testing.T) {
	// §2.3: 145 ns / 35 ns ≈ 4 entries.
	prof := Sawtooth(newM, LocalWrite(), smallCfg())
	plateau, _ := prof.At(64<<10, 32)
	if d := InferWriteBufferDepth(145, plateau); d != 4 {
		t.Errorf("write buffer depth estimate = %d, want 4", d)
	}
}

func TestPrefetchProbeShape(t *testing.T) {
	pts := PrefetchProbe(newM, []int{1, 4, 16}, 16)
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	one, four, sixteen := pts[0].AvgNSPerOp, pts[1].AvgNSPerOp, pts[2].AvgNSPerOp
	// Figure 6: grouping pipelines the latency away.
	if !(one > four && four > sixteen) {
		t.Errorf("latency not decreasing with group size: %v %v %v", one, four, sixteen)
	}
	// Groups of 16 approach the 31-cycle (~207 ns) issue+pop floor.
	if sixteen < 170 || sixteen > 240 {
		t.Errorf("group-16 = %.1f ns/op, want ≈ 207", sixteen)
	}
	// A single prefetch costs about a blocking read plus 15 cycles.
	if one < 620 || one > 790 {
		t.Errorf("group-1 = %.1f ns/op, want ≈ 700", one)
	}
}

func TestBandwidth(t *testing.T) {
	// 150 MHz: 1 byte/cycle = 150 MB/s.
	if b := Bandwidth(1500, 1500); b < 149 || b > 151 {
		t.Errorf("Bandwidth = %.1f, want 150", b)
	}
	if b := Bandwidth(100, 0); b != 0 {
		t.Errorf("zero-cycle bandwidth = %v", b)
	}
}

func TestStridesFor(t *testing.T) {
	st := StridesFor(64)
	want := []int64{8, 16, 32}
	if len(st) != len(want) {
		t.Fatalf("StridesFor(64) = %v", st)
	}
	for i := range want {
		if st[i] != want[i] {
			t.Fatalf("StridesFor(64) = %v", st)
		}
	}
}

func TestDefaultSizes(t *testing.T) {
	s := DefaultSizes()
	if s[0] != 4<<10 || s[len(s)-1] != 8<<20 {
		t.Errorf("DefaultSizes = %v", s)
	}
}
