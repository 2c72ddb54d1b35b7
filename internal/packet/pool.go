package packet

import "sync"

// Frame buffer pool. Every frame on the wire lives in a buffer drawn here,
// and every buffer has exactly one owner at a time, who either hands it on
// or returns it:
//
//   - the sender (host.Agent, a switch originating a reply or forking a
//     multicast frame, a federation gateway relaying onto the WAN) calls
//     GetBuffer and encodes header and payload into it once;
//   - links and switches pass it on by reference; a hop pops its tag by
//     re-slicing the same buffer forward;
//   - the receiver (host.Agent after its deliver callback, the switch after
//     a multicast fork, the WAN end after the gateway consumed the envelope)
//     calls PutBuffer. Payload slices handed to application callbacks alias
//     the buffer and die with it: a sink that keeps bytes copies them.
//
// Frames dropped in flight (link down, queue overflow, loss) are simply not
// returned; the collector takes them.
//
// The pool is a pair of sync.Pools, so it has no lock shared between engine
// shards and no size cap, and the collector may empty it. That last property
// is what lets it hold a whole wave: a k=16 fat-tree round has ~6,100 frames
// in flight at once, 12.5 MiB of MTU buffers — a fixed freelist that size
// would pin 12.5 MiB of live heap for good (on a 20 MiB heap), a smaller one
// overflows every round and recycles almost nothing. A cleared pool costs
// one round of fresh buffers, and with the per-frame garbage gone the
// collector runs a few times per run, not once per round.
//
// Buffers travel as *[]byte boxes because putting a bare []byte into a
// sync.Pool boxes the slice header into an interface — one allocation per
// recycled frame. The boxes themselves cycle between the two pools: full
// holds boxes that carry a buffer, empty holds boxes waiting for one, so in
// steady state neither GetBuffer nor PutBuffer allocates.
//
// Recycled buffers may have lost capacity at the front: every switch hop
// pops one tag by re-slicing the frame forward (PopTag), so a buffer that
// crossed k hops comes back k bytes (or k MPLS entries) shorter. PutBuffer
// keeps any buffer that still has useful capacity; GetBuffer retires one
// that has shrunk below the request instead of returning it short.

// DefaultBufferCap is the capacity of freshly pooled buffers: an MTU-sized
// payload plus the largest practical header (full MaxPathLen tag stack).
const DefaultBufferCap = 2048

// minRecycleCap is the smallest buffer worth recycling; anything shorter is
// left to the garbage collector.
const minRecycleCap = 256

var (
	fullBoxes  sync.Pool // *[]byte carrying a recyclable buffer
	emptyBoxes sync.Pool // *[]byte carrying nil
)

// GetBuffer returns a length-n byte buffer, drawn from the pool when a
// pooled buffer is large enough. The contents are unspecified.
func GetBuffer(n int) []byte {
	if n > DefaultBufferCap {
		return make([]byte, n)
	}
	if box, _ := fullBoxes.Get().(*[]byte); box != nil {
		b := *box
		*box = nil
		emptyBoxes.Put(box)
		if cap(b) >= n {
			return b[:n]
		}
		// Tag pops ate the front of this one: retire it.
	}
	return make([]byte, n, DefaultBufferCap)
}

// PutBuffer returns a buffer to the pool. The caller must not touch buf, or
// any slice of it, afterwards; under -race the buffer is overwritten with
// 0xDB so that a retained payload shows. Buffers that shrank too far, or
// were allocated oversized outside the pool, are dropped.
func PutBuffer(buf []byte) {
	c := cap(buf)
	if c < minRecycleCap || c > DefaultBufferCap {
		return
	}
	buf = buf[:c]
	if poisonReleased {
		for i := range buf {
			buf[i] = 0xDB
		}
	}
	box, _ := emptyBoxes.Get().(*[]byte)
	if box == nil {
		box = new([]byte)
	}
	*box = buf
	fullBoxes.Put(box)
}
