// Package shell is a hermetic stub of repro/internal/shell for
// analyzer golden tests: one fallible entry point.
package shell

import "repro/internal/sim"

// Wait mirrors a fallible package-level shell call.
func Wait(budget sim.Time) error { return nil }
