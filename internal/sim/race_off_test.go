//go:build !race

package sim

// raceEnabled reports whether the race detector is active. Under it
// sync.Pool drops a share of what is put back on purpose, so the pool
// cannot promise an allocation-free simulation and that test is skipped.
const raceEnabled = false
