//go:build !race

package experiments

// raceEnabled is true when the race detector is built in; it adds
// allocations of its own, so allocation ceilings do not hold under it.
const raceEnabled = false
