//go:build race

package experiments

// raceEnabled reports whether the race detector is compiled in; its
// ~10× slowdown makes wall-clock regression limits meaningless.
const raceEnabled = true
