//go:build race

package experiments

// raceEnabled reports whether the test binary was built with -race. Its
// instrumentation multiplies the datapath's wall-clock costs, so Fig 9's
// timed check is asserted only without it.
const raceEnabled = true
