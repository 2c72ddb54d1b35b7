//go:build race

package host_test

// raceEnabled reports whether the test binary was built with -race. The
// race instrumentation heap-escapes values that otherwise stay on the
// stack, so alloc guards hold a separate, measured bound under it.
const raceEnabled = true
