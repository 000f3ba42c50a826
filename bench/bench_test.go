package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from the simulator")

// TestUpdateGolden rewrites the golden file from one run of every
// catalogue entry at the golden seed. Without -update it does nothing:
// every run at the golden seed checks the file.
func TestUpdateGolden(t *testing.T) {
	if !*update {
		t.Skip("rewrites testdata/golden.json only with -update")
	}
	g := goldenFile{Seed: goldenSeed, Outputs: map[string]map[string]output{}}
	for _, c := range []closedLoop{probesLoop(&probeAcc{}), em3dLoop(&em3dAcc{}), appsLoop(appsAcc{})} {
		g.Outputs[c.name] = map[string]output{}
		for _, e := range c.inputs(goldenSeed) {
			out, err := e.call(&opCtx{})
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, e.name, err)
			}
			g.Outputs[c.name][e.name] = out
		}
	}
	g.Outputs["serve"] = map[string]output{}
	prewarm, names, _ := serveInputs(goldenSeed, 0)
	for i, spec := range prewarm {
		r, err := serve.RunBatch(spec)
		if err != nil {
			t.Fatalf("serve %s: %v", names[i], err)
		}
		g.Outputs["serve"][names[i]] = output{Cycles: r.Cycles, Digest: r.Digest, Validated: r.Validated}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/golden.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsMatchBenchmark checks that the metrics the program reports
// are the ones BENCHMARK.json lists, with the same units.
func TestMetricsMatchBenchmark(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, listed []benchmarkBound) {
		if len(defs) != len(listed) {
			t.Errorf("%s: the program reports %d metrics, BENCHMARK.json lists %d", kind, len(defs), len(listed))
		}
		for i := 0; i < min(len(defs), len(listed)); i++ {
			if defs[i].name != listed[i].Name || defs[i].unit != listed[i].Unit {
				t.Errorf("%s %d: the program reports %s (%s), BENCHMARK.json lists %s (%s)",
					kind, i, defs[i].name, defs[i].unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer, bf.PerLayer)
}

// lastLine parses the JSON result a run prints last.
func lastLine(t *testing.T, out string) summary {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return s
}

// checkRun checks that a run printed every metric of defs with its unit
// and that no operation failed, golden checks included.
func checkRun(t *testing.T, out string, defs []metricDef) {
	t.Helper()
	s := lastLine(t, out)
	if !s.Correct || s.Failed != 0 || s.Attempted == 0 {
		t.Fatalf("correct=%v failed=%d of %d:\n%s", s.Correct, s.Failed, s.Attempted, out)
	}
	if len(s.Metrics) != len(defs) {
		t.Errorf("%d metrics printed, want %d", len(s.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := s.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
		}
		if !strings.Contains(out, "\n"+d.name+" ") {
			t.Errorf("metric %s has no human-readable line", d.name)
		}
	}
}

// TestSmoke runs the serve workload for about 2 s untraced, then a
// traced apps run, whose one-pass runs of probes, em3d and serve cover
// every workload at the golden seed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	t.Setenv("TMPDIR", t.TempDir())
	var out bytes.Buffer
	if err := run(&out, "serve", params{seed: goldenSeed, duration: 2 * time.Second}, "", ""); err != nil {
		t.Fatal(err)
	}
	checkRun(t, out.String(), endToEnd)

	out.Reset()
	results := filepath.Join(t.TempDir(), "results.jsonl")
	p := params{seed: goldenSeed, tr: newTracer()}
	if err := run(&out, "apps", p, filepath.Join(t.TempDir(), "trace.json"), results); err != nil {
		t.Fatal(err)
	}
	checkRun(t, out.String(), perLayer)
	recs, err := readRecords(results)
	if err != nil || len(recs) != 1 || !recs[0].Traced || recs[0].Workload != "apps" {
		t.Fatalf("results file: %v %+v", err, recs)
	}
}

func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // reversed, so tail must sort
		}
		return xs
	}
	for _, c := range []struct {
		n         int
		pct, want float64
		ok        bool
	}{
		{19, 0, 0, false}, // the median of 19 has 9 samples beyond it
		{20, 50, 10, true},
		{60, 75, 45, true}, // p90 would have 6 beyond, p75 has 15
		{100, 90, 90, true},
		{1000, 99, 990, true},
		{10000, 99.9, 9990, true},
	} {
		pct, v, ok := tail(seq(c.n))
		if pct != c.pct || v != c.want || ok != c.ok {
			t.Errorf("tail of %d samples = p%g %g %v, want p%g %g %v", c.n, pct, v, ok, c.pct, c.want, c.ok)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) and ([1, 2, 4, 8, 100], n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 4, 8, 100}, [3]float64{1.5, 4, 54}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestMannWhitney(t *testing.T) {
	a := []float64{10, 11, 12, 13, 14}
	b := []float64{1, 2, 3, 4, 5}
	if u, p := mannWhitney(a, b); u != 25 || p > 0.02 {
		t.Errorf("separated samples: U=%g p=%g, want U=25 and p<0.02", u, p)
	}
	if u, p := mannWhitney(a, a); u != 12.5 || math.Abs(p-1) > 1e-9 {
		t.Errorf("identical samples: U=%g p=%g, want U=12.5 and p=1", u, p)
	}
}

func TestVerdict(t *testing.T) {
	bound := 0.1
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		b    []float64
		want string
	}{
		{[]float64{100, 99, 101, 100, 102}, "unchanged"},
		{[]float64{80, 81, 79, 80, 82}, "improved"},
		{[]float64{120, 121, 119, 120, 122}, "worse"},
		{[]float64{60, 140, 100, 70, 130}, "unresolved"},
	} {
		if got := verdict(base, c.b, true, &bound); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.b, got, c.want)
		}
	}
}
