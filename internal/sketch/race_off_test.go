//go:build !race

package sketch

// raceEnabled reports whether the race detector is active. Under it
// allocation counts are not the program's, and the serial equivalence
// checks run about ten times slower, so the allocation tripwire and the
// largest preset's equivalence matrix are skipped.
const raceEnabled = false
