//go:build race

package pipeline

// raceEnabled reports that the race detector is active; the allocation
// guards are skipped because the instrumented runtime allocates on its own.
const raceEnabled = true
