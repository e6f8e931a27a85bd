//go:build !race

package isomorph

// raceEnabled reports whether the race detector is active. Under it
// allocation counts are not the program's, so the allocation tripwire is
// skipped, and the serial mapping equivalence check runs fewer rounds.
const raceEnabled = false
