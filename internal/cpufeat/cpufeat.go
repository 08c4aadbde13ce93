// Package cpufeat reports the CPU features the assembly kernels need.
// It is probed once at start-up; each kernel package copies the flag
// into its own switch, which its tests flip to run every kernel in one
// process.
package cpufeat
