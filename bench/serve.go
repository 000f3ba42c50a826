package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/em3d"
	"repro/internal/serve"
)

// The serve workload drives an in-process serve.Server behind net/http
// on 127.0.0.1, with two workers and its journal and checkpoint
// directory in a temporary directory on disk, through serve.Client
// with one attempt per call and at most nproc connections.
//
//   - Phase A is an open loop of Poisson arrivals at 8 requests per
//     second: half are cache hits on 8 specs prewarmed before timing,
//     40% fresh em3d specs (unique seeds, rotating through the six
//     versions, every fourth checkpointing every 30000 cycles) and 10%
//     fresh samplesort specs. A fresh job is timed from its scheduled
//     send time to the GET /jobs/{id} that returns its digest. It runs
//     in four segments; between two, the requests in flight finish and
//     a calibration sample runs.
//   - Phase B is a closed loop of cache hits on nproc connections, in
//     six chunks with a calibration sample after each.
//
// Both phases are counts: 8 arrivals and 10000 hits per second of their
// share of the duration.
//
// cpu_ms is the geometric mean of two medians: over phase A's segments,
// of the process CPU time per fresh job, and over phase B's chunks, of
// the CPU time per cache hit. The wall-clock latencies and the hit rate
// are per-layer metrics.
//
// It is the only workload that goes through HTTP, admission, the
// journal's fsync and checkpoint writes. Cache-hit reads run beside
// journal and checkpoint writes, so a gain on one path that costs the
// other shows. After phase A every 8th fresh spec is re-run with
// serve.RunBatch, outside the timed windows, and must give the served
// digest.

const (
	serveRate      = 8.0   // phase A requests per second
	hitsPerSecond  = 10000 // phase B hits per second of its share of the duration
	serveWorkers   = 2
	serveCkpt      = 30000 // checkpoint cadence of every fourth fresh em3d spec, cycles
	recheckEvery   = 8
	serveSegments  = 4 // phase A segments, each followed by a calibration sample
	hitChunks      = 6 // phase B chunks, each followed by a calibration sample
	requestTimeout = 60 * time.Second
)

// request is one phase A arrival.
type request struct {
	at    time.Duration // scheduled send time after phase A starts
	spec  serve.JobSpec
	hit   int    // index of the prewarmed spec it repeats, or -1 if fresh
	class string // hit, em3d, em3d-ckpt or samplesort
}

// serveInputs generates the prewarmed specs, their names, and phase A's
// n arrivals.
func serveInputs(seed int64, n int) (prewarm []serve.JobSpec, names []string, reqs []request) {
	rng := rand.New(rand.NewSource(seed))
	base := rng.Int63n(1<<40) + 1
	for i, v := range em3d.Versions {
		prewarm = append(prewarm, serve.JobSpec{App: serve.AppEM3D, Version: v.String(), Seed: base + int64(i)})
		names = append(names, "em3d "+v.String())
	}
	for i := 0; i < 2; i++ {
		prewarm = append(prewarm, serve.JobSpec{App: serve.AppSampleSort, KeysPerPE: 512, Seed: base + 6 + int64(i)})
		names = append(names, fmt.Sprintf("samplesort %d", i))
	}
	// The classes rotate in a fixed pattern, so every run offers the
	// same requests and only their arrival times vary with the seed.
	next := base + 1000 // fresh seeds, distinct from the prewarmed ones
	nHit, nEM3D := 0, 0
	t := 0.0
	for k := 0; k < n; k++ {
		t += rng.ExpFloat64() / serveRate
		rq := request{at: time.Duration(t * float64(time.Second)), hit: -1}
		switch k % 10 {
		case 0, 2, 4, 6, 8:
			rq.hit = nHit % len(prewarm)
			rq.spec, rq.class = prewarm[rq.hit], "hit"
			nHit++
		case 1, 3, 5, 7:
			rq.spec = serve.JobSpec{App: serve.AppEM3D, Version: em3d.Versions[nEM3D%len(em3d.Versions)].String(), Seed: next}
			rq.class = "em3d"
			if nEM3D%4 == 3 {
				rq.spec.CheckpointCycles = serveCkpt
				rq.class = "em3d-ckpt"
			}
			nEM3D++
		default:
			rq.spec = serve.JobSpec{App: serve.AppSampleSort, KeysPerPE: 512, Seed: next}
			rq.class = "samplesort"
		}
		if rq.hit < 0 {
			next++
		}
		reqs = append(reqs, rq)
	}
	return prewarm, names, reqs
}

// service is the server under test and the benchmark's client.
type service struct {
	dir       string
	srv       *serve.Server
	hs        *http.Server
	served    chan struct{} // closed when the HTTP server's goroutine returns
	transport *http.Transport
	client    *serve.Client
}

// startService starts the server with its journal and checkpoint
// directory in a fresh temporary directory, and makes one round trip.
func startService() (*service, error) {
	dir, err := os.MkdirTemp("", "bench-serve-")
	if err != nil {
		return nil, err
	}
	ckptDir := filepath.Join(dir, "ckpt")
	if err := os.Mkdir(ckptDir, 0o755); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv, err := serve.NewServer(serve.Config{
		Pool:          serve.PoolConfig{Workers: serveWorkers},
		JournalPath:   filepath.Join(dir, "journal"),
		CheckpointDir: ckptDir,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Kill()
		os.RemoveAll(dir)
		return nil, err
	}
	s := &service{dir: dir, srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan struct{})}
	go func() {
		defer close(s.served)
		s.hs.Serve(ln)
	}()
	conns := runtime.NumCPU()
	s.transport = &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	s.client = &serve.Client{
		BaseURL:  "http://" + ln.Addr().String(),
		HTTP:     &http.Client{Transport: s.transport, Timeout: requestTimeout},
		Attempts: 1,
	}
	resp, err := s.client.HTTP.Get(s.client.BaseURL + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
		}
	}
	if err != nil {
		return nil, errors.Join(err, s.stop())
	}
	return s, nil
}

// stop drains the server, stops the HTTP server and waits for its
// goroutine, and removes the temporary directory.
func (s *service) stop() error {
	drainErr := s.srv.Drain(10 * time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutErr := s.hs.Shutdown(ctx)
	<-s.served
	s.transport.CloseIdleConnections()
	return errors.Join(drainErr, shutErr, os.RemoveAll(s.dir))
}

// wait blocks until the in-process job id is terminal, the same event
// a ?watch=1 stream wakes on.
func (s *service) wait(id string) (*serve.Job, error) {
	job, err := s.srv.Job(id)
	if err != nil {
		return nil, err
	}
	t := time.NewTimer(requestTimeout)
	defer t.Stop()
	select {
	case <-job.Done():
		return job, nil
	case <-t.C:
		return nil, fmt.Errorf("job %s not done after %s", id, requestTimeout)
	}
}

// checkDone checks that a status carries a finished, validated result.
func checkDone(st serve.JobStatus) error {
	if st.State != serve.StateDone.String() || st.Result == nil {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if !st.Result.Validated || st.Result.Digest == "" {
		return fmt.Errorf("job %s: result not validated", st.ID)
	}
	return nil
}

// checkHit checks that a submit was answered from the cache with the
// prewarmed digest.
func checkHit(st serve.JobStatus, digest string) error {
	if err := checkDone(st); err != nil {
		return err
	}
	if !st.Result.Cached || st.Result.Digest != digest {
		return fmt.Errorf("job %s: cached=%v digest %s, want a cache hit with %s", st.ID, st.Result.Cached, st.Result.Digest, digest)
	}
	return nil
}

// reqResult is one phase A request's outcome and timings.
type reqResult struct {
	err                                       error
	latency, ack, status, queueRun, queueWait time.Duration
	digest                                    string
}

func (s *service) send(rq request, due time.Time, tr *tracer, digests []string) (r reqResult) {
	sp := tr.begin("serve.request "+rq.class, 0)
	defer sp.end()
	ack := tr.begin("POST /jobs", sp.id)
	st, err := s.client.Submit(rq.spec)
	r.ack = ack.end()
	if err != nil {
		r.err = err
		return r
	}
	if rq.hit >= 0 {
		r.err = checkHit(st, digests[rq.hit])
		return r
	}
	ackAt := time.Now()
	job, err := s.wait(st.ID)
	if err != nil {
		r.err = err
		return r
	}
	doneAt := time.Now()
	get := tr.begin("GET /jobs/{id}", sp.id)
	st, err = s.client.Status(st.ID)
	r.status = get.end()
	r.latency = time.Since(due)
	if err == nil {
		err = checkDone(st)
	}
	if err != nil {
		r.err = err
		return r
	}
	r.digest = st.Result.Digest
	r.queueWait = job.QueueWait()
	r.queueRun = doneAt.Sub(ackAt)
	return r
}

// prewarm runs the cache-hit specs to completion on nproc concurrent
// callers and returns their digests.
func (s *service) prewarm(specs []serve.JobSpec) ([]string, error) {
	digests := make([]string, len(specs))
	errs := make([]error, len(specs))
	conns := runtime.NumCPU()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(specs); i += conns {
				st, err := s.client.Submit(specs[i])
				if err == nil && !st.Terminal() {
					_, err = s.wait(st.ID)
					if err == nil {
						st, err = s.client.Status(st.ID)
					}
				}
				if err == nil {
					err = checkDone(st)
				}
				if err == nil {
					digests[i] = st.Result.Digest
				}
				errs[i] = err
			}
		}(c)
	}
	wg.Wait()
	return digests, errors.Join(errs...)
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

func runServe(p params) (*result, error) {
	res := newResult()
	// Phase A takes three quarters of the duration and phase B the rest,
	// as counts of requests at their nominal rates, so every run does
	// the same work whatever the host's speed.
	phaseB := p.duration / 4
	phaseA := p.duration - phaseB
	if p.mini {
		phaseA, phaseB = 3*time.Second, time.Second
	}
	nA := max(int(math.Round(phaseA.Seconds()*serveRate)), 1)
	nB := max(int(phaseB.Seconds()*hitsPerSecond), 1)

	var s *service
	var prewarm []serve.JobSpec
	var names []string
	var reqs []request
	var setups []float64
	warmHeap(p.cal)
	for i := 0; i < setupReps; i++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, err
			}
		}
		t := time.Now()
		prewarm, names, reqs = serveInputs(p.seed, nA)
		var err error
		if s, err = startService(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	res.e2e["setup_s"] = metric{value: median(setups), n: len(setups),
		note: "median of inputs + NewServer + listener + first round trip"}

	digests, err := s.prewarm(prewarm)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("prewarm: %w", err), s.stop())
	}
	var wrong []string
	if golden := goldenOutputs("serve", p.seed, false); golden != nil {
		for i, d := range digests {
			if want := golden[names[i]]; want.Digest != d {
				wrong = append(wrong, fmt.Sprintf("%s: digest %s, golden %s", names[i], d, want.Digest))
			}
		}
	}

	// Phase A: the open loop, in segments. After each segment the
	// generator waits for the requests in flight and takes a calibration
	// sample, and the next segment keeps the schedule's gaps from there.
	traceOp := func(i int) *tracer {
		if p.mini || i%2 == 0 {
			return p.tr
		}
		return nil
	}
	calsA := []float64{p.cal.sample()}
	var gc cpuClock
	var cpuA []time.Duration
	var freshA []int // fresh requests in each segment
	results := make([]reqResult, len(reqs))
	var wg sync.WaitGroup
	var lateMax time.Duration
	for seg := 0; seg < serveSegments; seg++ {
		from, to := seg*len(reqs)/serveSegments, (seg+1)*len(reqs)/serveSegments
		if from == to {
			continue
		}
		g0, c0 := readCPU(), cpuTime()
		base := time.Now().Add(-reqs[from].at)
		fresh := 0
		for i := from; i < to; i++ {
			rq := reqs[i]
			if rq.hit < 0 {
				fresh++
			}
			due := base.Add(rq.at)
			time.Sleep(time.Until(due))
			lateMax = max(lateMax, time.Since(due))
			wg.Add(1)
			go func(i int, rq request, due time.Time) {
				defer wg.Done()
				results[i] = s.send(rq, due, traceOp(i), digests)
			}(i, rq, due)
		}
		wg.Wait()
		cpuA = append(cpuA, cpuTime()-c0)
		gc = gc.add(g0.since())
		freshA = append(freshA, fresh)
		calsA = append(calsA, p.cal.sample())
	}

	// Outside the timed windows: every 8th fresh spec again, in batch.
	nFresh := 0
	for i, rq := range reqs {
		if rq.hit >= 0 {
			continue
		}
		if nFresh%recheckEvery == 0 && results[i].err == nil {
			br, err := serve.RunBatch(rq.spec)
			if err == nil && br.Digest != results[i].digest {
				err = fmt.Errorf("served digest %s, batch digest %s", results[i].digest, br.Digest)
			}
			if err != nil {
				results[i].err = fmt.Errorf("RunBatch re-check: %w", err)
			}
		}
		nFresh++
	}

	// Phase B: the closed loop of cache hits, in chunks with a
	// calibration sample after each, so each chunk's CPU time is scaled
	// by the samples around it.
	calsB := []float64{p.cal.sample()}
	runtime.GC()
	heap0 := liveHeapMiB()
	conns := runtime.NumCPU()
	hitUS := make([][]float64, conns)
	hitTraced := make([][]float64, conns)
	hitErrs := make([][]error, conns)
	var cpuB []time.Duration
	var elapsedB time.Duration
	for ch := 0; ch < hitChunks; ch++ {
		from, to := ch*nB/hitChunks, (ch+1)*nB/hitChunks
		g0, c0, t0 := readCPU(), cpuTime(), time.Now()
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := from + c; i < to; i += conns {
					tr := traceOp(i / conns)
					k := i % len(prewarm)
					sp := tr.begin("serve.hit", 0)
					st, err := s.client.Submit(prewarm[k])
					d := sp.end()
					if err == nil {
						err = checkHit(st, digests[k])
					}
					switch {
					case err != nil:
						hitErrs[c] = append(hitErrs[c], err)
					case tr != nil:
						hitTraced[c] = append(hitTraced[c], float64(d.Nanoseconds())/1e3)
					default:
						hitUS[c] = append(hitUS[c], float64(d.Nanoseconds())/1e3)
					}
				}
			}(c)
		}
		wg.Wait()
		elapsedB += time.Since(t0)
		cpuB = append(cpuB, cpuTime()-c0)
		gc = gc.add(g0.since())
		calsB = append(calsB, p.cal.sample())
	}
	status := s.srv.Status()
	var allHits, allTraced []float64
	for c := range hitUS {
		allHits = append(allHits, hitUS[c]...)
		allTraced = append(allTraced, hitTraced[c]...)
	}
	runtime.GC()
	heap1 := liveHeapMiB()
	res.e2e["peak_heap_mb"] = metric{value: heap1, n: 1, note: "live heap after phase B: all the server retained"}
	heapPerHit := (heap1 - heap0) * 1024 / float64(max(len(allHits)+len(allTraced), 1))
	if err := s.stop(); err != nil {
		return nil, err
	}

	// Tally.
	var fresh, ackMS, statusMS, waitMS, runMS, runCkptMS []float64
	for i, r := range results {
		rq := reqs[i]
		res.attempted++
		if r.err != nil {
			res.fail("serve %s request %d: %v", rq.class, i, r.err)
			continue
		}
		if len(wrong) > 0 && rq.hit >= 0 {
			res.fail("serve %s request %d: prewarmed result is wrong: %s", rq.class, i, wrong[0])
			continue
		}
		if rq.hit >= 0 {
			continue
		}
		fresh = append(fresh, ms(r.latency))
		ackMS = append(ackMS, ms(r.ack))
		statusMS = append(statusMS, ms(r.status))
		waitMS = append(waitMS, ms(r.queueWait))
		run := ms(r.queueRun - r.queueWait)
		if rq.class == "em3d-ckpt" {
			runCkptMS = append(runCkptMS, run)
		} else {
			runMS = append(runMS, run)
		}
	}
	for c := range hitErrs {
		res.attempted += len(hitUS[c]) + len(hitTraced[c]) + len(hitErrs[c])
		for _, err := range hitErrs[c] {
			res.fail("serve phase B hit: %v", err)
		}
	}
	if len(wrong) > 0 {
		res.fail("serve phase B: prewarmed result is wrong: %s", wrong[0])
	}

	hits := len(allHits) + len(allTraced)
	// Each segment's and chunk's CPU time is scaled by the calibration
	// samples around it, and each phase's figure is their median.
	var segMS []float64
	for seg, d := range cpuA {
		segMS = append(segMS, factorAt(calsA, seg)*d.Seconds()*1e3/float64(max(freshA[seg], 1)))
	}
	cpuJob := median(segMS)
	var chunkUS []float64
	for ch, d := range cpuB {
		n := (ch+1)*nB/hitChunks - ch*nB/hitChunks
		chunkUS = append(chunkUS, factorAt(calsB, ch)*d.Seconds()*1e6/float64(max(n, 1)))
	}
	cpuHit := median(chunkUS)
	res.e2e["cpu_ms"] = metric{value: geomean([]float64{cpuJob, cpuHit / 1e3}), n: len(fresh) + hits, scaled: true,
		note: "host CPU ms: geometric mean of the medians per fresh job (phase A segments) and per cache hit (phase B chunks)"}
	p50 := median(fresh)
	freshTail, freshPct := tailOr(fresh)
	hitRPS := float64(hits) / elapsedB.Seconds()
	res.info = append(res.info,
		fmt.Sprintf("cpu_ms is from %.4g CPU ms per fresh job and %.4g CPU µs per hit, scaled", cpuJob, cpuHit),
		fmt.Sprintf("%d fresh jobs, scheduled send to digest: p50 %.4g ms, %s %.4g ms (wall-clock, unscaled)", len(fresh), p50, freshPct, freshTail),
		fmt.Sprintf("%.4g cache-hit submits per second in phase B on %d connections (wall-clock, unscaled)", hitRPS, conns))
	if p.tr == nil {
		return res, nil
	}
	l := res.layer
	note := func(n int, s string) metric { return metric{n: n, note: "serve: " + s} }
	set := func(name string, v float64, m metric) { m.value = v; l[name] = m }
	set("serve.fresh_p50_ms", p50, note(len(fresh), "median scheduled send to digest, fresh jobs"))
	set("serve.fresh_tail_ms", freshTail, note(len(fresh), freshPct+" of the same"))
	set("serve.hit_rps", hitRPS, note(hits, "cache-hit submits per second in phase B"))
	pre := func(m metric) metric { m.scaled = true; return m }
	set("serve.cpu_ms_per_job", cpuJob, pre(note(len(fresh), "process CPU ms per fresh job, median over phase A's segments")))
	set("serve.cpu_us_per_hit", cpuHit, pre(note(hits, "process CPU µs per cache hit, median over phase B's chunks")))
	set("serve.submit_ack_ms", median(ackMS), note(len(ackMS), "median POST /jobs to ack, fresh jobs (includes journal fsync)"))
	set("serve.status_ms", median(statusMS), note(len(statusMS), "median GET /jobs/{id} returning the digest"))
	set("serve.queue_wait_ms", median(waitMS), note(len(waitMS), "median Job.QueueWait"))
	waitTail, waitPct := tailOr(waitMS)
	set("serve.queue_wait_tail_ms", waitTail, note(len(waitMS), waitPct+" of Job.QueueWait"))
	set("serve.run_ms", median(runMS), note(len(runMS), "median done − ack − queue wait, uncheckpointed"))
	set("serve.run_ckpt_ms", median(runCkptMS), note(len(runCkptMS), "median done − ack − queue wait, checkpointing em3d"))
	set("serve.hit_us", median(allTraced), note(len(allTraced), "median phase B cache-hit submit"))
	hitTail, hitPct := tailOr(allTraced)
	set("serve.hit_tail_us", hitTail, note(len(allTraced), hitPct+" of phase B cache-hit submits"))
	set("serve.heap_kb_per_hit", heapPerHit, note(hits, "live-heap growth over phase B per hit"))
	set("serve.sheds", float64(status.Sheds), note(1, "admission refusals"))
	set("serve.cache_hits", float64(status.CacheHits), note(1, "result-cache hits"))
	set("serve.cache_misses", float64(status.CacheMisses), note(1, "result-cache misses"))
	if j := status.Journal; j != nil {
		set("journal.appends", float64(j.Appends), note(1, "journal appends"))
		set("journal.last_fsync_us", float64(j.LastFsyncMicros), note(1, "last journal fsync"))
	}
	if c := status.Checkpoints; c != nil {
		set("ckpt.writes", float64(c.Stats.Writes), note(1, "checkpoint files published"))
		set("ckpt.mb", float64(c.Stats.Bytes)/(1<<20), note(1, "checkpoint bytes published"))
	}
	set("gen.late_max_ms", ms(lateMax), note(len(reqs), "latest phase A send behind schedule"))
	set("gen.sent", float64(len(reqs)), note(1, "phase A requests sent"))
	set("host.gc_cpu_frac", gc.frac(), note(1, "share of CPU in GC over phases A and B"))
	if !p.mini {
		set("trace.overhead", median(allTraced)/median(allHits), note(hits, "traced ÷ untraced median cache-hit submit, wall-clock"))
	}
	return res, nil
}

// tailOr is the tail of xs and its percentile, or the maximum when xs
// has too few samples for one.
func tailOr(xs []float64) (float64, string) {
	if pct, v, ok := tail(xs); ok {
		return v, fmt.Sprintf("p%g", pct)
	}
	if len(xs) == 0 {
		return 0, "max"
	}
	return sorted(xs)[len(xs)-1], "max"
}
