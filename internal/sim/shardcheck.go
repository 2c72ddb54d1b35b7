package sim

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
)

// shardDebug gates the shard-affinity guards on Now/Rand/schedule. They are
// on in -race builds, where nondeterminism bugs are being hunted anyway; a
// test may switch them on in a normal build. When off, the sharded hot path
// pays a single boolean load; a standalone engine pays only the group==nil
// branch.
var shardDebug = raceEnabled

// curGoid returns the current goroutine's id, parsed from the stack header
// ("goroutine 123 [running]:"). Only used on the debug path — it costs a
// runtime.Stack call.
func curGoid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	s := bytes.TrimPrefix(buf[:n], []byte("goroutine "))
	i := bytes.IndexByte(s, ' ')
	if i < 0 {
		return -1
	}
	id, err := strconv.ParseInt(string(s[:i]), 10, 64)
	if err != nil {
		return -1
	}
	return id
}

// checkAffinity panics when a shard engine is touched from outside the
// goroutine that owns its current window. Each shard's clock, rng, and heap
// are single-threaded by design; an event handler on shard A reading shard
// B's clock or rng would race and — worse — silently skew B's deterministic
// schedule. While the group is idle (construction, inspection between runs)
// any goroutine may access any shard.
func (e *Engine) checkAffinity(op string) {
	if !shardDebug {
		return
	}
	g := e.group
	if g == nil || !g.running.Load() {
		return
	}
	owner := atomic.LoadInt64(&e.ownerGID)
	gid := curGoid()
	if owner == 0 {
		panic(fmt.Sprintf("sim: Engine.%s on idle shard %d from goroutine %d mid-window; shard engines are goroutine-affine — use the shard that owns the component", op, e.shard, gid))
	}
	if gid != owner {
		panic(fmt.Sprintf("sim: Engine.%s crossed shards: shard %d is owned by goroutine %d this window, called from goroutine %d; route cross-shard effects through links, not direct engine access", op, e.shard, owner, gid))
	}
}
