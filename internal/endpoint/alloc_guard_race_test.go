//go:build race

package endpoint

// raceEnabled reports that this test binary runs under the race
// detector, whose instrumentation inflates allocation counts; the
// alloc-ceiling guards skip themselves then (the CI test job runs them
// in a separate non-race step).
const raceEnabled = true
