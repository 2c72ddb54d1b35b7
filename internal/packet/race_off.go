//go:build !race

package packet

// poisonReleased is off outside -race builds: the fill would cost a full
// buffer write per delivered frame.
const poisonReleased = false
