package gencache

import (
	"sync"
	"testing"

	"dumbnet/internal/trace"
)

// key and tok mirror the shapes the planes instantiate: a struct key with a
// string in it (the tenant plane's) and a multi-field struct token.
type key struct {
	tenant string
	a, b   [6]byte
}

type tok struct {
	top      *int
	ver, gen uint64
}

type counts struct{ hits, misses, invalidated uint64 }

type fixture struct {
	c                         *Cache[key, tok, string]
	hits, misses, invalidated trace.Counter
}

func newFixture() *fixture {
	f := &fixture{}
	f.c = New[key, tok, string](&f.hits, &f.misses, &f.invalidated)
	return f
}

func (f *fixture) counts() counts {
	return counts{f.hits.Value(), f.misses.Value(), f.invalidated.Value()}
}

func TestGetPutStaleness(t *testing.T) {
	top1, top2 := new(int), new(int)
	k1 := key{tenant: "t0", a: [6]byte{1}, b: [6]byte{2}}
	k2 := key{tenant: "t1", a: [6]byte{1}, b: [6]byte{2}}
	t0 := tok{top: top1, ver: 1, gen: 7}

	type step struct {
		op      string // "get", "peek" or "put"
		k       key
		tok     tok
		v       string // value to put, or value a get/peek must return
		ok      bool
		want    counts // cumulative, after the step
		wantLen int
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"miss put hit", []step{
			{"get", k1, t0, "", false, counts{0, 1, 0}, 0},
			{"put", k1, t0, "A", false, counts{0, 1, 0}, 1},
			{"get", k1, t0, "A", true, counts{1, 1, 0}, 1},
			{"get", k2, t0, "", false, counts{1, 2, 0}, 1},
		}},
		{"each token field makes an entry stale", []step{
			{"put", k1, t0, "A", false, counts{}, 1},
			{"get", k1, tok{top1, 1, 8}, "", false, counts{0, 1, 1}, 0},
			{"put", k1, t0, "A", false, counts{0, 1, 1}, 1},
			{"get", k1, tok{top1, 2, 7}, "", false, counts{0, 2, 2}, 0},
			{"put", k1, t0, "A", false, counts{0, 2, 2}, 1},
			{"get", k1, tok{top2, 1, 7}, "", false, counts{0, 3, 3}, 0},
		}},
		{"stale get deletes and counts invalidated and miss once each", []step{
			{"put", k1, t0, "A", false, counts{}, 1},
			{"get", k1, tok{top1, 1, 8}, "", false, counts{0, 1, 1}, 0},
			// The entry is gone: asking again is a plain miss, and the old
			// token does not bring it back.
			{"get", k1, tok{top1, 1, 8}, "", false, counts{0, 2, 1}, 0},
			{"get", k1, t0, "", false, counts{0, 3, 1}, 0},
		}},
		{"put over a stale key replaces it", []step{
			{"put", k1, t0, "A", false, counts{}, 1},
			{"put", k1, tok{top1, 1, 8}, "B", false, counts{}, 1},
			{"get", k1, tok{top1, 1, 8}, "B", true, counts{1, 0, 0}, 1},
			{"get", k1, t0, "", false, counts{1, 1, 1}, 0},
		}},
		{"peek counts nothing and keeps a stale entry", []step{
			{"peek", k1, t0, "", false, counts{}, 0},
			{"put", k1, t0, "A", false, counts{}, 1},
			{"peek", k1, t0, "A", true, counts{}, 1},
			{"peek", k1, tok{top1, 1, 8}, "", false, counts{}, 1},
			{"get", k1, t0, "A", true, counts{1, 0, 0}, 1},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture()
			for i, s := range tc.steps {
				switch s.op {
				case "put":
					f.c.Put(s.k, s.tok, s.v)
				case "get", "peek":
					get := f.c.Get
					if s.op == "peek" {
						get = f.c.Peek
					}
					if v, ok := get(s.k, s.tok); v != s.v || ok != s.ok {
						t.Fatalf("step %d: %s = (%q, %v), want (%q, %v)", i, s.op, v, ok, s.v, s.ok)
					}
				}
				if got := f.counts(); got != s.want {
					t.Fatalf("step %d: counters %+v, want %+v", i, got, s.want)
				}
				if f.c.Len() != s.wantLen {
					t.Fatalf("step %d: Len = %d, want %d", i, f.c.Len(), s.wantLen)
				}
			}
		})
	}
}

func TestDeleteFuncClearLen(t *testing.T) {
	f := newFixture()
	t0, t1 := tok{gen: 1}, tok{gen: 2}
	for i := byte(0); i < 4; i++ {
		f.c.Put(key{tenant: "a", a: [6]byte{i}}, t0, "a")
		f.c.Put(key{tenant: "b", a: [6]byte{i}}, t1, "b")
	}
	if f.c.Len() != 8 {
		t.Fatalf("Len = %d, want 8", f.c.Len())
	}
	// DeleteFunc sees fresh and stale entries alike, with their values.
	n := f.c.DeleteFunc(func(k key, v string) bool {
		if v != k.tenant {
			t.Errorf("DeleteFunc saw value %q under tenant %q", v, k.tenant)
		}
		return k.tenant == "a"
	})
	if n != 4 || f.c.Len() != 4 {
		t.Fatalf("DeleteFunc dropped %d, Len = %d; want 4, 4", n, f.c.Len())
	}
	if _, ok := f.c.Peek(key{tenant: "a"}, t0); ok {
		t.Fatal("a deleted entry is still served")
	}
	if v, ok := f.c.Peek(key{tenant: "b", a: [6]byte{3}}, t1); !ok || v != "b" {
		t.Fatal("DeleteFunc dropped an entry it was not asked to")
	}
	if n := f.c.DeleteFunc(func(key, string) bool { return false }); n != 0 || f.c.Len() != 4 {
		t.Fatalf("no-op DeleteFunc dropped %d", n)
	}
	f.c.Clear()
	if f.c.Len() != 0 {
		t.Fatalf("Len after Clear = %d", f.c.Len())
	}
	f.c.Put(key{tenant: "a"}, t0, "again")
	if v, ok := f.c.Get(key{tenant: "a"}, t0); !ok || v != "again" {
		t.Fatal("cache unusable after Clear")
	}
	if got, want := f.counts(), (counts{hits: 1}); got != want {
		t.Fatalf("DeleteFunc/Clear/Len/Peek moved counters: %+v, want %+v", got, want)
	}
}

// TestPeekConcurrentReaders is RouteService.Warm's contract: any number of
// workers may Peek while nobody writes. Run under -race.
func TestPeekConcurrentReaders(t *testing.T) {
	f := newFixture()
	t0 := tok{gen: 1}
	for i := byte(0); i < 64; i++ {
		f.c.Put(key{a: [6]byte{i}}, t0, "v")
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 128; i++ {
				_, ok := f.c.Peek(key{a: [6]byte{byte(i)}}, t0)
				if want := i < 64; ok != want {
					t.Errorf("Peek(%d) ok = %v, want %v", i, ok, want)
				}
				if _, ok := f.c.Peek(key{a: [6]byte{byte(i)}}, tok{gen: 2}); ok {
					t.Errorf("Peek(%d) served a stale entry", i)
				}
			}
		}()
	}
	wg.Wait()
	if got := f.counts(); got != (counts{}) {
		t.Fatalf("Peek moved counters: %+v", got)
	}
}

func TestGetAllocFree(t *testing.T) {
	f := newFixture()
	k, t0 := key{tenant: "t000", a: [6]byte{1}, b: [6]byte{2}}, tok{top: new(int), ver: 3, gen: 9}
	f.c.Put(k, t0, "A")
	if n := testing.AllocsPerRun(1000, func() {
		if _, ok := f.c.Get(k, t0); !ok {
			t.Fatal("warm Get missed")
		}
	}); n != 0 {
		t.Fatalf("warm Get allocates %v per op, want 0", n)
	}
}
