//go:build race

package lake_test

// raceEnabled reports a race-detector build, under which sync.Pool drops a
// random share of Puts, so pooled hot paths allocate by design.
const raceEnabled = true
