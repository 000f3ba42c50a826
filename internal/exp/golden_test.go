package exp

// Golden-output regression tests: the simulator is deterministic, so the
// rendered experiment tables are stable byte for byte. Any timing-model
// change shows up here as a readable diff. Every experiment is pinned at
// quick scale, all in this one process. Refresh with:
//
//	UPDATE_GOLDEN=1 go test ./internal/exp -run Golden

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
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
			var sb strings.Builder
			for _, tb := range e.Run(Options{Quick: true}) {
				tb.Render(&sb)
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
