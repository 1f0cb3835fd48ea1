//go:build !race

package workloads

// raceEnabled reports whether the test binary runs under the race
// detector.
const raceEnabled = false
