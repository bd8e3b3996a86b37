//go:build !race

package core

// raceEnabled mirrors alloc_guard_race_test.go for plain test binaries.
const raceEnabled = false
