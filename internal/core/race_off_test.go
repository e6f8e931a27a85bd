//go:build !race

package core

// raceEnabled reports whether the race detector is active. Under it the
// runtime allocates for its own bookkeeping and sync.Pool drops a share
// of what is put back on purpose, so byte budgets do not hold and their
// tests are skipped.
const raceEnabled = false
