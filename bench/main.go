// Command bench is the repository's end-to-end benchmark. It runs one
// seeded workload against the simulator or the job service from a
// single caller, checks every simulated output, and prints each metric
// with its unit and sample count, ending with one JSON line:
//
//	go run . -workload em3d -seed 1 -duration 20s
//	go run . -workload serve -seed 3 -trace trace.json
//	go run . -workload apps -seed 2 -out runs.jsonl
//	go run . -compare parent.jsonl change.jsonl
//
// An untraced run prints the end-to-end metrics. A -trace run records a
// span around each of the benchmark's calls into a layer, writes them as
// Chrome trace-event JSON, and prints the per-layer metrics instead.
// README.md describes the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// metricDef names one metric and its unit as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// endToEnd are the host costs a user of the simulator or the service
// pays. Every workload reports all of them. The work itself is measured
// in process CPU time, which excludes the time the host steals from
// this machine's virtual CPUs: on a shared host steal comes in bursts
// that move wall-clock times by a third or more, and wall-clock times
// are per-layer metrics instead.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_heap_mb", "MiB"},
	{"cpu_ms", "ms"},
}

// perLayer are the metrics of single layers that a traced run reports.
var perLayer = []metricDef{
	// probes: machine construction and single accesses.
	{"machine.build_us", "us"},
	{"machine.build_alloc_kb", "KiB"},
	{"cpu.local_load_ns", "ns"},
	{"cpu.local_store_ns", "ns"},
	{"shell.remote_load_ns", "ns"},
	{"shell.remote_store_ns", "ns"},
	{"shell.prefetch_ns", "ns"},
	// Wall-clock time, simulation work and host allocation per unit of
	// work.
	{"host.wall_ms_per_point", "ms"},
	{"host.wall_ms_per_edge", "ms"},
	{"host.wall_ms_per_run", "ms"},
	{"sim.events_per_point", "count"},
	{"sim.events_per_edge", "count"},
	{"sim.events_per_run", "count"},
	{"sim.ns_per_event", "ns"},
	{"host.allocs_per_point", "count"},
	{"host.allocs_per_edge", "count"},
	{"host.allocs_per_run", "count"},
	{"host.bytes_per_point", "B"},
	{"host.bytes_per_edge", "B"},
	{"host.bytes_per_run", "B"},
	{"host.gc_cpu_frac", "ratio"},
	{"host.vmhwm_mb", "MiB"},
	// em3d and apps calls.
	{"em3d.run_ms", "ms"},
	{"em3d.iter_ms", "ms"},
	{"apps.samplesort_ms", "ms"},
	{"apps.hist_am_ms", "ms"},
	{"apps.hist_rmw_ms", "ms"},
	{"apps.radix_ms", "ms"},
	// Rungs: one public call of one layer in a loop.
	{"sim.at_pop_ns", "ns"},
	{"sim.at_pop_allocs", "count"},
	{"sim.proc_wait_ns", "ns"},
	{"sim.proc_wait_allocs", "count"},
	{"sim.signal_wake_ns", "ns"},
	{"sim.signal_wake_allocs", "count"},
	{"splitc.read_ns", "ns"},
	{"splitc.read_allocs", "count"},
	{"splitc.put_sync_ns", "ns"},
	{"splitc.put_sync_allocs", "count"},
	{"splitc.barrier_ns", "ns"},
	{"splitc.barrier_allocs", "count"},
	{"am.send_poll_ns", "ns"},
	{"am.send_poll_allocs", "count"},
	{"shell.fetch_inc_ns", "ns"},
	{"shell.fetch_inc_allocs", "count"},
	{"journal.append_us", "us"},
	{"serve.key_ns", "ns"},
	{"serve.cache_get_ns", "ns"},
	// serve: the HTTP, admission, journal and checkpoint paths.
	{"serve.fresh_p50_ms", "ms"},
	{"serve.fresh_tail_ms", "ms"},
	{"serve.hit_rps", "1/s"},
	{"serve.cpu_ms_per_job", "ms"},
	{"serve.cpu_us_per_hit", "us"},
	{"serve.submit_ack_ms", "ms"},
	{"serve.status_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.queue_wait_tail_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.run_ckpt_ms", "ms"},
	{"serve.hit_us", "us"},
	{"serve.hit_tail_us", "us"},
	{"serve.heap_kb_per_hit", "KiB"},
	{"serve.sheds", "count"},
	{"serve.cache_hits", "count"},
	{"serve.cache_misses", "count"},
	{"journal.appends", "count"},
	{"journal.last_fsync_us", "us"},
	{"ckpt.writes", "count"},
	{"ckpt.mb", "MiB"},
	{"gen.late_max_ms", "ms"},
	{"gen.sent", "count"},
	// The traced run's own cost.
	{"trace.overhead", "ratio"},
}

// params is what one workload run is asked to do.
type params struct {
	seed     int64
	duration time.Duration
	tr       *tracer // nil for an untraced run
	cal      *calibrator
	// mini asks for one short pass without warm-up: a traced run uses it
	// to measure the layers of the workloads it did not select.
	mini bool
}

// metric is one measured value with the sample count behind it and a
// note on how it was summarised, both for the human-readable line.
type metric struct {
	value  float64
	n      int
	note   string
	scaled bool // already scaled to the reference host, pass by pass
}

// result is what one run measured.
type result struct {
	attempted, failed int
	errs              []string
	e2e, layer        map[string]metric
	info              []string // figures printed for people, outside the metrics
}

func newResult() *result {
	return &result{e2e: map[string]metric{}, layer: map[string]metric{}}
}

// fail counts one failed operation, keeping the first messages.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// absorb adds another run's operation counts and failures to r.
func (r *result) absorb(o *result) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.errs = append(r.errs, o.errs...)
}

var workloads = map[string]func(params) (*result, error){
	"probes": runProbes,
	"em3d":   runEM3D,
	"apps":   runApps,
	"serve":  runServe,
}

// workloadOrder fixes the order a traced run measures the other
// workloads in.
var workloadOrder = []string{"probes", "em3d", "apps", "serve"}

// measure runs the selected workload. A traced run then makes one short
// pass of each workload it did not select and runs the rung ladder, so
// every per-layer metric is present whatever the workload: a metric
// comes from the selected workload's own traffic when that workload
// exercises the layer, and from the short pass of the workload that
// does otherwise.
func measure(name string, p params) (*result, error) {
	res, err := workloads[name](p)
	if err != nil || p.tr == nil {
		return res, err
	}
	layer := map[string]metric{}
	for _, other := range workloadOrder {
		if other == name {
			continue
		}
		mp := p
		mp.mini = true
		o, err := workloads[other](mp)
		if err != nil {
			return nil, fmt.Errorf("%s pass: %w", other, err)
		}
		res.absorb(o)
		maps.Copy(layer, o.layer)
	}
	rungs, err := runRungs()
	if err != nil {
		return nil, err
	}
	p.cal.sample()
	maps.Copy(layer, rungs)
	maps.Copy(layer, res.layer)
	res.layer = layer
	return res, nil
}

// meta describes where and how a result was measured.
type meta struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	DurationS  float64 `json:"duration_s"`
	Traced     bool    `json:"traced"`
	Revision   string  `json:"revision"`
	GoVersion  string  `json:"go"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	// CalibrationMS is the median CPU time of the calibration loop in
	// the run; Scale is the factor the run's times were multiplied by.
	CalibrationMS float64 `json:"calibration_ms"`
	CalibrationN  int     `json:"calibration_n"`
	Scale         float64 `json:"scale"`
}

func newMeta(workload string, p params) meta {
	m := meta{
		Workload: workload, Seed: p.seed, DurationS: p.duration.Seconds(), Traced: p.tr != nil,
		Revision: "unknown", GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CalibrationMS: median(p.cal.samples) * 1e3, CalibrationN: len(p.cal.samples), Scale: p.cal.scale(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Revision = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty {
			m.Revision += "+dirty"
		}
	}
	return m
}

// jsonMetric is a metric as the last line prints it.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of a run's output.
type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// record is one run as -out appends it and -compare reads it.
type record struct {
	meta
	Result summary `json:"result"`
}

// timeUnits are the units summarise scales to the reference host speed,
// with the power of the scale factor each takes.
var timeUnits = map[string]float64{"s": 1, "ms": 1, "us": 1, "ns": 1, "1/s": -1}

// scaled is m's value on the reference host.
func scaled(d metricDef, m metric, scale float64) float64 {
	if pow, ok := timeUnits[d.unit]; ok && !m.scaled {
		return m.value * math.Pow(scale, pow)
	}
	return m.value
}

// summarise picks the metrics the run reports: the end-to-end ones, or
// for a traced run the per-layer ones, with every time scaled by the
// run's calibration factor. A missing or non-finite metric is a bug in
// the benchmark and an error.
func summarise(res *result, traced bool, scale float64) (summary, error) {
	defs, got := endToEnd, res.e2e
	if traced {
		defs, got = perLayer, res.layer
	}
	s := summary{
		Correct:   res.failed == 0 && res.attempted > 0,
		Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]jsonMetric{},
	}
	for _, d := range defs {
		m, ok := got[d.name]
		if !ok {
			return s, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return s, fmt.Errorf("metric %s is %v", d.name, m.value)
		}
		s.Metrics[d.name] = jsonMetric{Value: scaled(d, m, scale), Unit: d.unit}
	}
	return s, nil
}

func printReport(w io.Writer, md meta, res *result, s summary) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# bench workload=%s seed=%d duration=%s traced=%v revision=%s go=%s nproc=%d gomaxprocs=%d\n",
		md.Workload, md.Seed, time.Duration(md.DurationS*float64(time.Second)), md.Traced,
		md.Revision, md.GoVersion, md.NProc, md.GOMAXPROCS)
	fmt.Fprintf(bw, "# calibration loop %.4g ms (median of %d); times below are scaled to a host where it takes %s\n",
		md.CalibrationMS, md.CalibrationN, calRef)
	line := func(d metricDef, m metric) {
		fmt.Fprintf(bw, "%-26s %14.6g %-5s n=%-7d %s\n", d.name, scaled(d, m, md.Scale), d.unit, m.n, m.note)
	}
	for _, d := range endToEnd {
		if m, ok := res.e2e[d.name]; ok {
			line(d, m)
		}
	}
	if md.Traced {
		fmt.Fprintln(bw, "# per-layer")
		for _, d := range perLayer {
			line(d, res.layer[d.name])
		}
	}
	for _, s := range res.info {
		fmt.Fprintln(bw, "#", s)
	}
	frac := 0.0
	if res.attempted > 0 {
		frac = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(bw, "%-26s %14.6g %-5s n=%-7d failed of attempted operations\n", "failed_frac", frac, "ratio", res.attempted)
	for _, e := range res.errs {
		fmt.Fprintln(bw, "# FAILED:", e)
	}
	data, err := json.Marshal(s)
	if err != nil {
		return err
	}
	bw.Write(data)
	bw.WriteByte('\n')
	return bw.Flush()
}

func appendRecord(path string, r record) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func main() {
	workload := flag.String("workload", "", "workload to run: probes, em3d, apps or serve")
	seed := flag.Int64("seed", goldenSeed, "seed the workload's inputs are generated from")
	duration := flag.Duration("duration", 30*time.Second, "how long to measure")
	tracePath := flag.String("trace", "", "run traced, write Chrome trace-event JSON to this file and print per-layer metrics")
	out := flag.String("out", "", "append the result and its metadata to this JSON-lines file")
	compare := flag.Bool("compare", false, "compare two files of results: -compare A.jsonl B.jsonl")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.jsonl B.jsonl")
			os.Exit(2)
		}
		if err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if _, ok := workloads[*workload]; !ok || flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: -workload must be one of %s\n", strings.Join(workloadOrder, ", "))
		os.Exit(2)
	}
	p := params{seed: *seed, duration: *duration}
	if *tracePath != "" {
		p.tr = newTracer()
	}
	if err := run(os.Stdout, *workload, p, *tracePath, *out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// run measures one workload and prints its report; it returns an error,
// and prints no result line, when the benchmark itself cannot run.
func run(w io.Writer, workload string, p params, tracePath, out string) error {
	p.cal = &calibrator{}
	res, err := measure(workload, p)
	if err != nil {
		return err
	}
	// Peak RSS moves by a tenth from run to run with the collector's and
	// scavenger's timing, so it is printed but is no end-to-end metric.
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	res.info = append(res.info, fmt.Sprintf("peak RSS (VmHWM) %.1f MiB", rss))
	if p.tr != nil {
		res.layer["host.vmhwm_mb"] = metric{value: rss, n: 1, note: "peak RSS (VmHWM) of the whole traced run"}
		if err := p.tr.writeChrome(tracePath); err != nil {
			return err
		}
	}
	md := newMeta(workload, p)
	s, err := summarise(res, p.tr != nil, md.Scale)
	if err != nil {
		return err
	}
	if out != "" {
		if err := appendRecord(out, record{meta: md, Result: s}); err != nil {
			return fmt.Errorf("-out: %w", err)
		}
	}
	return printReport(w, md, res, s)
}
