package main

import (
	_ "embed"
	"encoding/json"
)

// goldenSeed is the default seed. testdata/golden.json holds the
// simulated outputs of every catalogue entry at this seed; regenerate it
// with `go test . -update`.
const goldenSeed = 1

//go:embed testdata/golden.json
var goldenJSON []byte

// goldenFile maps workload → entry name → simulated output.
type goldenFile struct {
	Seed    int64                        `json:"seed"`
	Outputs map[string]map[string]output `json:"outputs"`
}

// goldenOutputs returns the golden outputs of a workload's entries, or
// nil when seed is not the golden seed and the workload's outputs
// depend on it. An unreadable golden file yields an empty map, so every
// entry fails its check.
func goldenOutputs(workload string, seed int64, seedFree bool) map[string]output {
	if seed != goldenSeed && !seedFree {
		return nil
	}
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil || g.Outputs[workload] == nil {
		return map[string]output{}
	}
	return g.Outputs[workload]
}
