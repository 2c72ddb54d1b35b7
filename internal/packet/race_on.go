//go:build race

package packet

// poisonReleased makes PutBuffer overwrite every released buffer, so that
// under the race detector a receiver that kept a payload past its callback
// reads 0xDB instead of silently seeing the next frame's bytes.
const poisonReleased = true
