//go:build race

package core_test

// raceEnabled reports whether the test binary was built with -race. The
// end-to-end alloc guard skips its strict assertion under race: sync.Pool
// drops a share of Puts there and instrumentation heap-escapes stack values.
const raceEnabled = true
