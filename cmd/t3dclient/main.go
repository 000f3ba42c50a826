// Command t3dclient submits a job to a t3dserve instance, follows its
// NDJSON progress stream, and verifies the result digest. It is the
// well-behaved client the service's admission control and degraded
// mode assume: 429 sheds and 503 brownouts are retried with
// deterministic jittered exponential backoff that honors Retry-After,
// a dropped watch stream reconnects instead of giving up, and a job the
// server no longer holds (404 mid-watch) is submitted once more.
//
// Usage:
//
//	t3dclient -server http://localhost:8080 -app em3d -pes 8 -seed 7
//	t3dclient -server http://localhost:8080 -spec '{"app":"samplesort","pes":4,"seed":9}'
//	t3dclient -server http://localhost:8080 -spec @job.json -expect 6b51cf5e8f57b2a1
//
// Exit codes: 0 job done (and digest matched, when -expect was given),
// 1 job failed with a deterministic/deadline verdict, 2 transport
// failure or retry budget exhausted, 3 digest mismatch.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/serve"
)

func main() {
	var (
		server     = flag.String("server", "http://127.0.0.1:8080", "t3dserve base URL")
		specArg    = flag.String("spec", "", "job spec as inline JSON, or @file to read one")
		app        = flag.String("app", "em3d", "application (em3d or samplesort) when -spec is not given")
		pes        = flag.Int("pes", 8, "processor count")
		seed       = flag.Int64("seed", 1, "simulation seed")
		nodes      = flag.Int("nodes", 0, "em3d nodes per PE (0 = server default)")
		degree     = flag.Int("degree", 0, "em3d dependency degree")
		iters      = flag.Int("iters", 0, "em3d iterations")
		keys       = flag.Int("keys", 0, "samplesort keys per PE")
		tenant     = flag.String("tenant", "", "tenant name sent as the X-T3D-Tenant header")
		expect     = flag.String("expect", "", "expected result digest; mismatch exits 3")
		attempts   = flag.Int("attempts", 10, "transient-retry budget per operation")
		backoff    = flag.Duration("backoff", 250*time.Millisecond, "initial retry backoff")
		backoffMax = flag.Duration("backoff-max", 10*time.Second, "retry backoff ceiling")
		jitterSeed = flag.Uint64("jitter-seed", 1, "seed for the deterministic retry jitter")
		quiet      = flag.Bool("quiet", false, "suppress progress lines; print only the final status")
	)
	flag.Parse()

	spec, err := buildSpec(*specArg, *app, *pes, *seed, *nodes, *degree, *iters, *keys)
	if err != nil {
		fmt.Fprintf(os.Stderr, "t3dclient: %v\n", err)
		os.Exit(2)
	}

	c := serve.NewClient(strings.TrimRight(*server, "/"))
	c.Tenant = *tenant
	c.Attempts = *attempts
	c.Backoff = *backoff
	c.BackoffMax = *backoffMax
	c.JitterSeed = *jitterSeed
	c.Logf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	if !*quiet {
		resumeSeen := false
		c.OnProgress = func(st serve.JobStatus) {
			p := st.Progress
			// A resumed job announces where it picked up — once, the
			// first time the watch stream says so (also after a watch
			// reconnect against a server that restarted mid-job).
			if p.Resumed && !resumeSeen {
				resumeSeen = true
				fmt.Fprintf(os.Stderr, "t3dclient: %s resumed from epoch %d (%d cycles banked)\n",
					st.ID, p.ResumeEpoch, p.ResumeCycles)
			}
			fmt.Fprintf(os.Stderr, "t3dclient: %s %s iter %d/%d cycles %d\n",
				st.ID, st.State, p.Iters, p.TotalIters, p.Cycles)
		}
	}

	st, err := c.Run(spec, *expect)
	switch {
	case err == nil:
	case errors.Is(err, serve.ErrDigestMismatch):
		fmt.Fprintf(os.Stderr, "t3dclient: %v\n", err)
		os.Exit(3)
	default:
		fmt.Fprintf(os.Stderr, "t3dclient: %v\n", err)
		os.Exit(2)
	}

	out, _ := json.MarshalIndent(st, "", "  ")
	fmt.Println(string(out))
	if st.State != "done" {
		// A deterministic or deadline verdict: reported, not retried.
		os.Exit(1)
	}
}

// buildSpec assembles the job spec from -spec (inline JSON or @file) or
// from the individual flags.
func buildSpec(specArg, app string, pes int, seed int64, nodes, degree, iters, keys int) (serve.JobSpec, error) {
	var spec serve.JobSpec
	if specArg != "" {
		raw := []byte(specArg)
		if strings.HasPrefix(specArg, "@") {
			data, err := os.ReadFile(specArg[1:])
			if err != nil {
				return spec, err
			}
			raw = data
		}
		if err := json.Unmarshal(raw, &spec); err != nil {
			return spec, fmt.Errorf("bad -spec: %w", err)
		}
		return spec, nil
	}
	spec.App = app
	spec.PEs = pes
	spec.Seed = seed
	spec.NodesPerPE = nodes
	spec.Degree = degree
	spec.Iters = iters
	spec.KeysPerPE = keys
	return spec, nil
}
