package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkBound is one metric's entry in BENCHMARK.json.
type benchmarkBound struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchmarkFile struct {
	EndToEnd []benchmarkBound `json:"end_to_end"`
	PerLayer []benchmarkBound `json:"per_layer"`
}

// findBenchmark reads BENCHMARK.json from the working directory or the
// nearest directory above it.
func findBenchmark() (benchmarkFile, error) {
	var bf benchmarkFile
	dir, err := os.Getwd()
	if err != nil {
		return bf, err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			if err := json.Unmarshal(data, &bf); err != nil {
				return bf, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return bf, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return bf, fmt.Errorf("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

// readRecords reads the results -out appended to path.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// verdict applies the choosing-metrics rules to one metric on one
// workload, A being the parent and B the change. worse is the signed
// share by which B's median is worse than A's.
//
//   - improved: B beats A in at least nine tenths of all pairs, and the
//     medians differ by more than A's interquartile range;
//   - unresolved: either side's spread is wider than the bound, unless
//     every B run beats every A run;
//   - worse: B's median is worse than A's by more than the bound;
//   - unchanged: otherwise.
//
// Without a bound (a per-layer metric) only improved and worse-or-equal
// medians are told apart.
func verdict(a, b []float64, lowerBetter bool, bound *float64) string {
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	orient := func(x float64) float64 {
		if lowerBetter {
			return -x
		}
		return x
	}
	// Pairs in which B is better; ties count for neither side.
	wins, pairs := 0, len(a)*len(b)
	for _, x := range a {
		for _, y := range b {
			if orient(y) > orient(x) {
				wins++
			}
		}
	}
	if 10*wins >= 9*pairs && abs(mb-ma) > q3a-q1a && orient(mb) > orient(ma) {
		return "improved"
	}
	if bound == nil {
		return "no bound"
	}
	if wins == pairs {
		return "unchanged"
	}
	if (q3a-q1a)/abs(ma) > *bound || (q3b-q1b)/abs(mb) > *bound {
		return "unresolved"
	}
	if worse := orient(ma-mb) / abs(ma); worse > *bound {
		return "worse"
	}
	return "unchanged"
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// runCompare prints, for every metric and workload present in both
// files, each side's median, quartiles and run count, the Mann–Whitney
// U of B against A with its p-value, and a verdict against the bound
// BENCHMARK.json sets.
func runCompare(w io.Writer, pathA, pathB string) error {
	bf, err := findBenchmark()
	if err != nil {
		return err
	}
	defs := map[string]benchmarkBound{}
	var order []string
	for _, d := range append(append([]benchmarkBound(nil), bf.EndToEnd...), bf.PerLayer...) {
		defs[d.Name] = d
		order = append(order, d.Name)
	}
	ra, err := readRecords(pathA)
	if err != nil {
		return err
	}
	rb, err := readRecords(pathB)
	if err != nil {
		return err
	}
	// values[workload][metric] → samples.
	collect := func(rs []record) map[string]map[string][]float64 {
		out := map[string]map[string][]float64{}
		for _, r := range rs {
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Result.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], m.Value)
			}
		}
		return out
	}
	va, vb := collect(ra), collect(rb)
	var workloads []string
	for wl := range va {
		if _, ok := vb[wl]; ok {
			workloads = append(workloads, wl)
		}
	}
	sort.Strings(workloads)
	fmt.Fprintf(w, "# A = %s (%d runs), B = %s (%d runs)\n", pathA, len(ra), pathB, len(rb))
	fmt.Fprintf(w, "%-8s %-26s %-6s %5s %12s %12s %12s %5s %12s %12s %12s %8s %8s %7s  %s\n",
		"workload", "metric", "unit", "n(A)", "q1(A)", "median(A)", "q3(A)", "n(B)", "q1(B)", "median(B)", "q3(B)",
		"U", "p", "bound", "verdict")
	for _, wl := range workloads {
		for _, name := range order {
			a, b := va[wl][name], vb[wl][name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			d := defs[name]
			q1a, ma, q3a := quartiles(a)
			q1b, mb, q3b := quartiles(b)
			u, p := mannWhitney(b, a)
			bound := "-"
			if d.Bound != nil {
				bound = fmt.Sprintf("%.3g", *d.Bound)
			}
			fmt.Fprintf(w, "%-8s %-26s %-6s %5d %12.5g %12.5g %12.5g %5d %12.5g %12.5g %12.5g %8.1f %8.3g %7s  %s\n",
				wl, name, d.Unit, len(a), q1a, ma, q3a, len(b), q1b, mb, q3b, u, p, bound,
				verdict(a, b, d.Better != "higher", d.Bound))
		}
	}
	return nil
}
