//go:build race

package lifecycle

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
