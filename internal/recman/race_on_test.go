//go:build race

package recman

// raceEnabled reports whether the race detector is active; wall-clock
// budgets skip themselves under it (instrumentation slows every packet).
const raceEnabled = true
