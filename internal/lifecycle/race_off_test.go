//go:build !race

package lifecycle

// raceEnabled reports whether the race detector instruments this build
// (under it, sync.Pool.Put drops items at random, so two alloc counts of
// a path that draws from a pool can differ by what was dropped).
const raceEnabled = false
