// Package gencache is the one implementation of DumbNet's "is this cached
// answer still valid" rule. Every route answer — a path graph, a tenant
// slice answer, a multicast tree, a federated gateway route — is computed
// from one state of a controller's replicated topology view and must never
// be served from another (§4.1/§4.2: a link event becomes a patch, and
// nothing computed before the patch may be served after it). A Cache entry
// therefore carries a comparable token naming the state it was computed
// from, and is served only while the caller's current token equals it;
// invalidation is lazy, paid by the next lookup of that key.
//
// The cache holds no lock: the controller's instances live on the
// controller's engine thread, and a caller shared between threads (the
// federation regional resolver) wraps Get/Put in its own mutex.
package gencache

import "dumbnet/internal/trace"

type entry[T comparable, V any] struct {
	tok T
	v   V
}

// Cache maps keys to values stamped with the token they were computed
// under. In every instantiation K and T are small structs and V is a
// pointer to the plane's immutable answer, so a warm Get is one map probe
// plus one token compare, allocates nothing, and costs the same whatever
// the answer's size (handing a 64-byte answer out by value measured +6 ns
// on a 50 ns hit).
type Cache[K comparable, T comparable, V any] struct {
	m                         map[K]entry[T, V]
	hits, misses, invalidated *trace.Counter
}

// New returns an empty cache that counts Get outcomes on the given
// counters (the caller owns and names them).
func New[K comparable, T comparable, V any](hits, misses, invalidated *trace.Counter) *Cache[K, T, V] {
	return &Cache[K, T, V]{m: make(map[K]entry[T, V]), hits: hits, misses: misses, invalidated: invalidated}
}

// Get returns the value cached under k if it was stored under tok. An entry
// stored under any other token is stale: it is deleted and counted as
// invalidated, and the lookup then counts as a miss like any other, so the
// caller computes, and Puts, a fresh answer.
//
// Get inlines, and a key variable that stays live after the call is copied
// into it — with wider loads than the MAC-sized stores that built it, a
// store-forwarding stall that measured ~6 ns per hit. Hot callers therefore
// write the key as a composite literal at each use.
func (c *Cache[K, T, V]) Get(k K, tok T) (V, bool) {
	e, ok := c.m[k]
	if ok {
		if e.tok == tok {
			c.hits.Inc()
			return e.v, true
		}
		c.invalidated.Inc()
		delete(c.m, k)
	}
	c.misses.Inc()
	var zero V
	return zero, false
}

// Peek is Get without side effects: no counter moves and a stale entry
// stays. Any number of goroutines may Peek while none writes.
func (c *Cache[K, T, V]) Peek(k K, tok T) (V, bool) {
	e, ok := c.m[k]
	if !ok || e.tok != tok {
		var zero V
		return zero, false
	}
	return e.v, true
}

// Put stores v under k as computed from tok, replacing any entry there.
func (c *Cache[K, T, V]) Put(k K, tok T, v V) { c.m[k] = entry[T, V]{tok: tok, v: v} }

// Len reports how many entries are held, fresh or stale.
func (c *Cache[K, T, V]) Len() int { return len(c.m) }

// Clear drops every entry.
func (c *Cache[K, T, V]) Clear() { clear(c.m) }

// DeleteFunc drops every entry for which del reports true, whatever its
// token, and returns how many it dropped.
func (c *Cache[K, T, V]) DeleteFunc(del func(K, V) bool) int {
	n := 0
	for k, e := range c.m {
		if del(k, e.v) {
			delete(c.m, k)
			n++
		}
	}
	return n
}
