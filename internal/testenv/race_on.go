//go:build race

package testenv

// RaceEnabled reports that the race detector is active. The instrumented
// runtime allocates on its own, sync.Pool drops a share of what is put into
// it, and code runs an order of magnitude slower, so allocation guards are
// skipped and large inputs shrink under it.
const RaceEnabled = true
