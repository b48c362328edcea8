//go:build race

package main

// raceEnabled reports a race-detector build, whose sync.Pool drops a
// random share of the objects put back into it.
const raceEnabled = true
