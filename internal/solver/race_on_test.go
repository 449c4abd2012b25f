//go:build race

package solver

// raceEnabled reports that the race detector is active: sync.Pool then drops
// a share of what is put into it, so the allocation guards cannot hold, and
// DEFLATE runs an order of magnitude slower, so the dataset guard shrinks.
const raceEnabled = true
