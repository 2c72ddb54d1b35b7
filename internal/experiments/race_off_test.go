//go:build !race

package experiments

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
