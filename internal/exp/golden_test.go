package exp

// Golden-output regression tests: the simulator is deterministic, so the
// rendered experiment tables are stable byte for byte. Any timing-model
// change shows up here as a readable diff. Every experiment is pinned at
// quick scale, all in this one process, and must leave no goroutine
// behind: a machine whose run was aborted parks its procs until it is
// shut down. Refresh with:
//
//	UPDATE_GOLDEN=1 go test ./internal/exp -run Golden

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// shortGoldenIDs are the experiments pinned under -short: the race
// detector makes the full set too slow there.
var shortGoldenIDs = []string{"hop", "tab3", "fig6"}

func TestGoldenExperimentOutput(t *testing.T) {
	ids := shortGoldenIDs
	if !testing.Short() {
		ids = nil
		for _, e := range All() {
			ids = append(ids, e.ID)
		}
	}
	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			e, ok := Find(id)
			if !ok {
				t.Fatalf("experiment %s missing", id)
			}
			before := runtime.NumGoroutine()
			var sb strings.Builder
			for _, tb := range e.Run(Options{Quick: true}) {
				tb.Render(&sb)
			}
			if after := settledGoroutines(before); after > before {
				t.Errorf("%d goroutines after the run, %d before: a machine was left unreaped", after, before)
			}
			got := sb.String()
			path := filepath.Join("testdata", id+".golden")
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1): %v", err)
			}
			if got != string(want) {
				t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}

// settledGoroutines returns the goroutine count once it is at most want,
// or after a short grace period for reaped procs' goroutines to exit.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50 && n > want; i++ {
		time.Sleep(2 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}
