package telemetry

import (
	"cmp"
	"slices"
	"strings"

	"dumbnet/internal/packet"
)

// FlowID keys the heavy-hitter sketch: a (tenant, src, dst) talker. Tenant
// is empty when virtualization is off (or the pair is unresolvable).
type FlowID struct {
	Tenant string
	Src    packet.MAC
	Dst    packet.MAC
}

func (f FlowID) compare(o FlowID) int {
	return cmp.Or(cmp.Compare(f.Tenant, o.Tenant), cmp.Compare(f.Src.Uint64(), o.Src.Uint64()),
		cmp.Compare(f.Dst.Uint64(), o.Dst.Uint64()))
}

func (f FlowID) String() string {
	var b strings.Builder
	if f.Tenant != "" {
		b.WriteString(f.Tenant)
		b.WriteByte('/')
	}
	b.WriteString(f.Src.String())
	b.WriteString("->")
	b.WriteString(f.Dst.String())
	return b.String()
}

// FlowCount is one sketch entry: an estimated count and its maximum
// overestimation error (Err == 0 means the count is exact).
type FlowCount struct {
	Flow  FlowID
	Count uint64
	Err   uint64
}

// TopK is a space-saving heavy-hitter sketch (Metwally et al.): at most k
// monitored flows; a new flow evicts the current minimum and inherits its
// count as error bound. Deterministic — ties evict the lowest slot index —
// and allocation-free after the first k distinct flows.
type TopK struct {
	k       int
	idx     map[FlowID]int
	entries []FlowCount
}

// NewTopK returns a sketch tracking at most k flows (k < 1 is clamped to 1).
func NewTopK(k int) *TopK {
	if k < 1 {
		k = 1
	}
	return &TopK{k: k, idx: make(map[FlowID]int, k)}
}

// Offer counts one observation of f.
func (t *TopK) Offer(f FlowID) { t.Add(f, 1) }

// Add counts n observations of f.
func (t *TopK) Add(f FlowID, n uint64) {
	if i, ok := t.idx[f]; ok {
		t.entries[i].Count += n
		return
	}
	if len(t.entries) < t.k {
		t.idx[f] = len(t.entries)
		t.entries = append(t.entries, FlowCount{Flow: f, Count: n})
		return
	}
	// Evict the minimum-count slot (first such index: deterministic).
	min := 0
	for i := 1; i < len(t.entries); i++ {
		if t.entries[i].Count < t.entries[min].Count {
			min = i
		}
	}
	old := t.entries[min]
	delete(t.idx, old.Flow)
	t.idx[f] = min
	t.entries[min] = FlowCount{Flow: f, Count: old.Count + n, Err: old.Count}
}

// Len returns the number of monitored flows.
func (t *TopK) Len() int { return len(t.entries) }

// Top returns the monitored flows sorted by descending count (ties by
// ascending flow key, so output is deterministic).
func (t *TopK) Top() []FlowCount {
	out := append([]FlowCount(nil), t.entries...)
	slices.SortFunc(out, func(a, b FlowCount) int {
		return cmp.Or(cmp.Compare(b.Count, a.Count), a.Flow.compare(b.Flow))
	})
	return out
}

// Merge folds other's entries into t (counts add for shared flows; error
// bounds combine). Used by the Hub to present one fabric-wide top-k from
// per-shard sketches.
func (t *TopK) Merge(other *TopK) {
	if other == nil {
		return
	}
	for _, e := range other.entries {
		if i, ok := t.idx[e.Flow]; ok {
			t.entries[i].Count += e.Count
			t.entries[i].Err += e.Err
			continue
		}
		if len(t.entries) < t.k {
			t.idx[e.Flow] = len(t.entries)
			t.entries = append(t.entries, e)
			continue
		}
		min := 0
		for i := 1; i < len(t.entries); i++ {
			if t.entries[i].Count < t.entries[min].Count {
				min = i
			}
		}
		if e.Count <= t.entries[min].Count {
			continue
		}
		old := t.entries[min]
		delete(t.idx, old.Flow)
		t.idx[e.Flow] = min
		t.entries[min] = FlowCount{Flow: e.Flow, Count: e.Count, Err: e.Err + old.Count}
	}
}

// Reset empties the sketch, keeping capacity.
func (t *TopK) Reset() {
	t.entries = t.entries[:0]
	clear(t.idx)
}
