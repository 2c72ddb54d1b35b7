// Package alpha is a fixture for the line counter; main_test.go pins its counts.

package alpha

/*
A block comment spans
three lines.
*/
const greeting = `hello,
world` // a raw string counts every line it spans

func Double(x int) int { return 2 * x }
