// Command t3dlint runs the simulator's compiler-perspective invariant
// suite (internal/analysis) over module packages: the Split-C
// split-phase sync discipline (interprocedural, summary-based),
// deterministic-replay rules, the partition/poison/service error
// taxonomy, simulated-time-only cycle accounting, the cross-proc
// shared-state inventory, and the //t3d:hotpath allocation-free gate.
//
// Usage:
//
//	t3dlint ./...                 # whole module (what make lint runs)
//	t3dlint ./internal/em3d       # one package
//	t3dlint -json ./...           # machine-readable findings
//
// Exit status: 0 clean, 1 findings, 2 usage or load/type error.
// Findings are suppressed line by line with `//lint:allow <pass>
// <reason>`; unused or malformed suppressions are findings themselves.
// The -json output is a pinned contract (see main_test.go): it includes
// every diagnostic — suppressed ones too, with their reasons, so the
// allow inventory is machine-readable — while the exit status counts
// only active findings. A one-line timing summary goes to stderr so CI
// logs show where the lint budget went. See DESIGN.md §11 and §16 for
// the pass catalog and policy.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/cycleaccount"
	"repro/internal/analysis/determinism"
	"repro/internal/analysis/errtaxonomy"
	"repro/internal/analysis/hotalloc"
	"repro/internal/analysis/sharedstate"
	"repro/internal/analysis/splitphase"
)

// allAnalyzers is the full shipped suite, shared with the tree-clean
// test.
var allAnalyzers = []*analysis.Analyzer{
	splitphase.Analyzer,
	determinism.Analyzer,
	errtaxonomy.Analyzer,
	cycleaccount.Analyzer,
	sharedstate.Analyzer,
	hotalloc.Analyzer,
}

// report is the -json output shape. cmd/t3dlint's main_test.go pins it;
// CI tooling may rely on every field.
type report struct {
	Findings []analysis.Diagnostic `json:"findings"`
	// Active is the number of unsuppressed findings — what the exit
	// status reflects.
	Active int `json:"active"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit all findings (suppressed included) as JSON")
	flag.Parse()

	start := time.Now()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fail(err)
	}
	root, modPath, err := analysis.FindModule(cwd)
	if err != nil {
		fail(err)
	}
	paths, err := analysis.ExpandPatterns(root, modPath, patterns)
	if err != nil {
		fail(err)
	}

	l := analysis.NewLoader(root, modPath)
	all, mod, err := analysis.RunPackagesDetail(l, paths, allAnalyzers)
	if err != nil {
		fail(err)
	}
	active := analysis.Active(all)

	if *jsonOut {
		out := report{Findings: all, Active: len(active)}
		if out.Findings == nil {
			out.Findings = []analysis.Diagnostic{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fail(err)
		}
	} else {
		for _, d := range active {
			fmt.Println(d)
		}
		if len(active) > 0 {
			fmt.Fprintf(os.Stderr, "t3dlint: %d finding(s) in %d package(s)\n", len(active), len(paths))
		}
	}
	funcs := 0
	if mod != nil {
		funcs = len(mod.Graph.Nodes)
	}
	fmt.Fprintf(os.Stderr, "t3dlint: timing: %d packages, %d functions, %d passes, %d findings (%d suppressed) in %s\n",
		len(paths), funcs, len(allAnalyzers), len(all), len(all)-len(active), time.Since(start).Round(time.Millisecond))
	if len(active) > 0 {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "t3dlint:", err)
	os.Exit(2)
}
