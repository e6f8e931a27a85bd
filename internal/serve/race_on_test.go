//go:build race

package serve

const raceEnabled = true
