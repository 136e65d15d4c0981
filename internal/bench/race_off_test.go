//go:build !race

package bench

// raceEnabled reports whether the race detector instruments this build
// (its instrumentation slows execution ~10× and makes sync.Pool drop
// items, so wall-clock latency and alloc-count assertions only hold
// without it).
const raceEnabled = false
