//go:build race

package core

// raceEnabled reports that this test binary runs under the race
// detector, whose instrumentation inflates allocation counts; the
// alloc-ceiling guard skips itself then (the CI test job runs it in a
// separate non-race step).
const raceEnabled = true
