//go:build race

package main

// raceEnabled reports whether the race detector is on: it slows the smoke
// pass severalfold, so the wall-time limit is not asserted under it.
const raceEnabled = true
