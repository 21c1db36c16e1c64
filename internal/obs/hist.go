package obs

import (
	"math/bits"
	"sync/atomic"
)

// histBuckets is the number of exponential histogram buckets: bucket i
// counts observed values whose bit length is i, i.e. values in
// [2^(i-1), 2^i). Bucket 0 holds exact zeros. 64-bit values fit in 65
// buckets.
const histBuckets = 65

// Hist is a lock-free exponential histogram over uint64 values (latencies
// in nanoseconds, cycle counts). Observe is a handful of uncontended atomic
// adds; Snapshot is a consistent-enough copy for reporting (individual
// counters are read atomically, the set is not fenced — fine for
// monitoring).
type Hist struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// Observe records one value.
func (h *Hist) Observe(v uint64) {
	if h == nil {
		return
	}
	h.buckets[bits.Len64(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Snapshot copies the histogram into its plain (mergeable, serializable)
// form.
func (h *Hist) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	return s
}

// HistSnapshot is the plain-value form of a Hist: per-bucket counts plus
// the running count and sum. Bucket i spans [2^(i-1), 2^i) (bucket 0 is
// exact zeros), so quantiles resolve to within a factor of two.
type HistSnapshot struct {
	Buckets [histBuckets]uint64 `json:"buckets"`
	Count   uint64              `json:"count"`
	Sum     uint64              `json:"sum"`
}

// Merge adds another snapshot into this one (cross-worker aggregation).
func (s *HistSnapshot) Merge(o HistSnapshot) {
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
	s.Count += o.Count
	s.Sum += o.Sum
}

// Mean returns the mean of the observed values (0 when empty).
func (s *HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// bucketBounds returns the value range [lo, hi] covered by bucket i.
func bucketBounds(i int) (lo, hi uint64) {
	if i == 0 {
		return 0, 0
	}
	return uint64(1) << (i - 1), uint64(1)<<i - 1
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by locating the bucket
// holding the q-th observation and interpolating linearly inside it. The
// estimate is exact to the bucket's factor-of-two resolution.
func (s *HistSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	seen := 0.0
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		if seen+float64(n) >= rank {
			lo, hi := bucketBounds(i)
			frac := (rank - seen) / float64(n)
			return lo + uint64(frac*float64(hi-lo))
		}
		seen += float64(n)
	}
	// All mass consumed (q == 1): the top of the highest non-empty bucket.
	for i := histBuckets - 1; i >= 0; i-- {
		if s.Buckets[i] != 0 {
			_, hi := bucketBounds(i)
			return hi
		}
	}
	return 0
}
