//go:build race

package filter

// raceEnabled reports whether the race detector instruments this build:
// sync.Pool then drops and re-allocates at random, so zero-allocation
// assertions only hold in normal builds.
const raceEnabled = true
