//go:build race

package reldb_test

// The race detector makes sync.Pool drop values at random, so a pooled
// execState is not always there to reuse and allocation counts mean
// nothing.
func init() { raceEnabled = true }
