//go:build race

package core

// raceEnabled reports a -race build, whose sync.Pool drops pooled
// items at random: tests of pooled steady-state allocation skip there.
const raceEnabled = true
