package packet

import (
	"sync"
	"testing"
)

// drainPool empties the frame pool so a test starts from known contents.
func drainPool() {
	for fullBoxes.Get() != nil {
	}
}

// sameArray reports whether two non-empty slices end on the same byte, i.e.
// share a backing array (tag pops only ever move the front).
func sameArray(a, b []byte) bool {
	a, b = a[:cap(a)], b[:cap(b)]
	return &a[len(a)-1] == &b[len(b)-1]
}

func TestBufferPoolCycleAllocFree(t *testing.T) {
	if poisonReleased {
		t.Skip("sync.Pool drops a share of Puts under -race")
	}
	drainPool()
	first := GetBuffer(1500)
	PutBuffer(first)
	if again := GetBuffer(64); !sameArray(first, again) {
		t.Error("a returned buffer was not the next one handed out")
	} else {
		PutBuffer(again)
	}
	// Steady state: the buffer and its box just change pools.
	if n := testing.AllocsPerRun(1000, func() { PutBuffer(GetBuffer(1500)) }); n != 0 {
		t.Errorf("Get/Put cycle: %v allocs/op, want 0", n)
	}
}

func TestBufferPoolRetiresShrunkBuffer(t *testing.T) {
	drainPool()
	// A buffer that crossed many hops: tag pops ate all but 300 bytes.
	whole := make([]byte, DefaultBufferCap)
	PutBuffer(whole[DefaultBufferCap-300:])
	got := GetBuffer(1000)
	if len(got) != 1000 || cap(got) != DefaultBufferCap {
		t.Fatalf("len %d cap %d, want a fresh 1000-byte buffer of full capacity", len(got), cap(got))
	}
	if sameArray(got, whole) {
		t.Fatal("the shrunk buffer came back for a request it cannot hold")
	}
	if fullBoxes.Get() != nil {
		t.Fatal("the shrunk buffer is still pooled after failing a request")
	}
}

func TestBufferPoolDropsOddSizes(t *testing.T) {
	drainPool()
	PutBuffer(make([]byte, 2*DefaultBufferCap)) // allocated outside the pool
	PutBuffer(make([]byte, minRecycleCap-1))    // shrunk past usefulness
	PutBuffer(nil)
	if fullBoxes.Get() != nil {
		t.Fatal("an oversize or undersize buffer was pooled")
	}
	if b := GetBuffer(2 * DefaultBufferCap); len(b) != 2*DefaultBufferCap {
		t.Fatalf("oversize request: len %d", len(b))
	}
}

// Two engine shards draw and return buffers at once; a buffer must belong to
// one of them at a time.
func TestBufferPoolConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(mark byte) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				b := GetBuffer(64 + i%1400)
				for j := range b {
					b[j] = mark
				}
				for j := range b {
					if b[j] != mark {
						t.Errorf("buffer shared between goroutines: byte %d = %#x", j, b[j])
						return
					}
				}
				PutBuffer(b)
			}
		}(byte(g + 1))
	}
	wg.Wait()
}
