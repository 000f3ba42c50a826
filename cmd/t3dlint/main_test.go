package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// maxSuppressed is the waiver ratchet: how many findings the tree may
// waive with //lint:allow, the "(N suppressed)" count `make lint`
// prints. A new waiver needs a visible bump here in the same change;
// lower it when waivers go.
const maxSuppressed = 58

// TestTreeClean runs the full suite over the whole module — exactly
// what `make lint` does — and asserts zero active findings and no more
// suppressed ones than maxSuppressed. Every real violation must be
// fixed or carry a reviewed //lint:allow; deleting any single
// suppression (or reintroducing a fixed bug) fails this test because
// unused allows are findings too.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module including stdlib from source")
	}
	root, modPath, err := analysis.FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := analysis.ExpandPatterns(root, modPath, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	l := analysis.NewLoader(root, modPath)
	all, _, err := analysis.RunPackagesDetail(l, paths, allAnalyzers)
	if err != nil {
		t.Fatal(err)
	}
	active := analysis.Active(all)
	for _, d := range active {
		t.Errorf("finding on the merged tree: %s", d)
	}
	if n := len(all) - len(active); n > maxSuppressed {
		t.Errorf("%d findings suppressed by //lint:allow, above the ratchet of %d: fix the new finding, or raise maxSuppressed beside this test in the same change", n, maxSuppressed)
	}
}

// TestJSONContract pins the -json diagnostic schema for CI tooling:
// pass, position, class, message, and suppression state must all
// round-trip, and no unannounced fields may appear. A field rename or
// removal in analysis.Diagnostic fails here, not in a CI consumer.
func TestJSONContract(t *testing.T) {
	in := report{
		Findings: []analysis.Diagnostic{
			{
				Pass: "hotalloc", File: "internal/sim/engine.go", Line: 42, Col: 7,
				Class: "iface-box", Message: "int boxed into any",
			},
			{
				Pass: "sharedstate", File: "internal/em3d/em3d.go", Line: 9, Col: 2,
				Class: "shared-mutable", Message: "captured var total is mutated from 2 procs",
				Suppressed: true, SuppressReason: "reduction is commutative",
			},
		},
		Active: 1,
	}
	data, err := json.MarshalIndent(in, "", "  ")
	if err != nil {
		t.Fatal(err)
	}

	// Strict decode: unknown fields in the wire form mean the schema
	// drifted from this contract.
	type wireDiag struct {
		Pass           string `json:"pass"`
		File           string `json:"file"`
		Line           int    `json:"line"`
		Col            int    `json:"col"`
		Class          string `json:"class"`
		Message        string `json:"message"`
		Suppressed     bool   `json:"suppressed"`
		SuppressReason string `json:"suppress_reason"`
	}
	type wireReport struct {
		Findings []wireDiag `json:"findings"`
		Active   int        `json:"active"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var out wireReport
	if err := dec.Decode(&out); err != nil {
		t.Fatalf("schema drift: %v\npayload:\n%s", err, data)
	}
	if len(out.Findings) != 2 || out.Active != 1 {
		t.Fatalf("round-trip lost findings: %+v", out)
	}
	got := out.Findings[0]
	if got.Pass != "hotalloc" || got.Class != "iface-box" || got.Line != 42 || got.Col != 7 {
		t.Errorf("finding 0 fields corrupted: %+v", got)
	}
	if got.Suppressed || got.SuppressReason != "" {
		t.Errorf("finding 0 should be active: %+v", got)
	}
	sup := out.Findings[1]
	if !sup.Suppressed || sup.SuppressReason != "reduction is commutative" {
		t.Errorf("suppression state not preserved: %+v", sup)
	}
	// Suppressed findings must stay visible in the payload (they are
	// the allow inventory) and the token position must be omitted.
	if !strings.Contains(string(data), `"suppressed": true`) {
		t.Errorf("suppressed finding not serialized: %s", data)
	}
	if strings.Contains(string(data), `"Pos"`) || strings.Contains(string(data), `"Offset"`) {
		t.Errorf("token.Position leaked into the wire form: %s", data)
	}
}
