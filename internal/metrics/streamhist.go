package metrics

import "math/bits"

// StreamHist is a bounded streaming histogram: a fixed array of power-of-two
// buckets plus count/sum/min/max. Unlike Dist — which retains every sample
// and sorts on query, unbounded memory on long soaks — a StreamHist is a
// fixed ~530 bytes forever, Observe is allocation-free O(1), and two
// histograms merge bucket-wise, which is what per-shard telemetry consumers
// need to present one fabric-wide view. Resolution is one power of two
// (quantiles are bucket top edges, ±2×): the right trade for an always-on
// recorder. Negative observations are clamped to zero.
//
// Bucket i counts observations v with bits.Len64(v) == i, i.e.
// [2^(i-1), 2^i); bucket 0 holds exact zeros.
const streamHistBuckets = 64

// StreamHist aggregates int64 observations (typically virtual-time
// nanoseconds) into log2 buckets. The zero value is ready to use.
type StreamHist struct {
	buckets [streamHistBuckets + 1]uint64
	count   uint64
	sum     int64
	min     int64
	max     int64
}

// Observe records one observation. 0 allocs, O(1).
func (h *StreamHist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bits.Len64(uint64(v))]++
}

// Count reports the number of observations.
func (h *StreamHist) Count() uint64 { return h.count }

// Sum reports the total of all observations.
func (h *StreamHist) Sum() int64 { return h.sum }

// Min reports the smallest observation (0 when empty).
func (h *StreamHist) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max reports the largest observation (0 when empty).
func (h *StreamHist) Max() int64 { return h.max }

// Mean reports the arithmetic mean (0 when empty).
func (h *StreamHist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns an upper bound for the q-quantile (q in [0,1]): the top
// edge of the bucket holding the q-th observation. Resolution is one
// power of two.
func (h *StreamHist) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var seen uint64
	for i, c := range h.buckets {
		seen += c
		if seen > rank {
			if i == 0 {
				return 0
			}
			edge := int64(1) << uint(i)
			if edge > h.max || edge < 0 {
				return h.max
			}
			return edge
		}
	}
	return h.max
}

// Merge folds other into h bucket-wise. Min/max/sum/count combine exactly;
// quantiles of the merged histogram keep the same one-power-of-two
// resolution. Merging an empty histogram is a no-op.
func (h *StreamHist) Merge(other *StreamHist) {
	if other == nil || other.count == 0 {
		return
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
	for i := range h.buckets {
		h.buckets[i] += other.buckets[i]
	}
}

// Reset empties the histogram.
func (h *StreamHist) Reset() {
	*h = StreamHist{}
}
