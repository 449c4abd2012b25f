//go:build race

package stream

// raceEnabled reports that the race detector is active; the allocation
// guard is skipped because the instrumented runtime allocates on its own.
const raceEnabled = true
