//go:build !race

package solve

// raceEnabled reports whether the race detector is active. The
// exact-engine budget test spends its whole 20 000-pivot budget on one
// goroutine, so it has nothing for the detector to find and takes about
// twenty times as long under it; it is skipped there.
const raceEnabled = false
