package packet

// FNV-1a, the one keyed hash behind the simulator's seeds, flow keys and
// digests.
const (
	// FNVBasis is FNV-1a's 64-bit offset basis.
	FNVBasis uint64 = 14695981039346656037
	// FNVShortBasis is one digit short of FNVBasis. The seeds and digests
	// that start from it are pinned by tests, so they keep it.
	FNVShortBasis uint64 = 1469598103934665603
)

// FNVMix folds v into h whole: one FNV-1a step.
func FNVMix(h, v uint64) uint64 { return (h ^ v) * 1099511628211 }

// FNV folds the bytes of b into h, one FNV-1a step each.
func FNV[T ~[]byte | ~string](h uint64, b T) uint64 {
	for i := 0; i < len(b); i++ {
		h = FNVMix(h, uint64(b[i]))
	}
	return h
}
