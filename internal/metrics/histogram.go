// Lock-free latency histogram for the serving hot path. The Recorder in
// this package keeps every sample and sorts on read — fine for offline
// experiment harnesses, ruinous inside a server: Record takes a mutex
// and appends (allocating), and every percentile read re-sorts the whole
// sample set. Histogram replaces it on the hot path: 64 power-of-two
// buckets with atomic counters, so Record is two atomic adds (no locks,
// no allocation — the warm zero-alloc Predict path records through it)
// and percentile reads cost one pass over 64 counters.
package metrics

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets covers every non-negative int64 nanosecond duration:
// bucket 0 holds exactly 0, bucket k (1..63) holds [2^(k-1), 2^k).
const histBuckets = 64

// Histogram is a fixed-bucket concurrent latency histogram. The zero
// value is ready to use; all methods are safe for concurrent use.
// Percentiles are resolved to the upper bound of the containing
// power-of-two bucket, i.e. they over-estimate by at most 2× — the
// right bias for latency SLO accounting (never under-report).
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	sum    atomic.Int64 // total recorded nanoseconds
}

// bucketFor maps a non-negative nanosecond value to its bucket index.
func bucketFor(ns int64) int {
	return bits.Len64(uint64(ns))
}

// bucketUpper is the largest value bucket i can hold.
func bucketUpper(i int) int64 {
	if i == 0 {
		return 0
	}
	return (int64(1) << i) - 1
}

// Record adds one sample. Two atomic adds: lock-free and
// allocation-free, safe on the zero-alloc warm prediction path.
func (h *Histogram) Record(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketFor(ns)].Add(1)
	h.sum.Add(ns)
}

// Percentile returns the p-th percentile (0 < p <= 100) resolved to the
// upper bound of its bucket; zero when empty.
func (h *Histogram) Percentile(p float64) time.Duration {
	var counts [histBuckets]uint64
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return percentileOf(&counts, total, p)
}

// percentileOf resolves one percentile over a loaded bucket array.
func percentileOf(counts *[histBuckets]uint64, total uint64, p float64) time.Duration {
	if total == 0 {
		return 0
	}
	rank := uint64(p / 100 * float64(total))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			return time.Duration(bucketUpper(i))
		}
	}
	return time.Duration(bucketUpper(histBuckets - 1))
}

// HistogramSnapshot is a point-in-time JSON-friendly view of a
// Histogram: sample count, mean and the serving percentiles.
type HistogramSnapshot struct {
	Count     uint64 `json:"count"`
	MeanNanos int64  `json:"mean_ns"`
	P50Nanos  int64  `json:"p50_ns"`
	P95Nanos  int64  `json:"p95_ns"`
	P99Nanos  int64  `json:"p99_ns"`
}

// P50 returns the snapshot's median as a duration.
func (s HistogramSnapshot) P50() time.Duration { return time.Duration(s.P50Nanos) }

// P95 returns the snapshot's 95th percentile as a duration.
func (s HistogramSnapshot) P95() time.Duration { return time.Duration(s.P95Nanos) }

// P99 returns the snapshot's 99th percentile as a duration.
func (s HistogramSnapshot) P99() time.Duration { return time.Duration(s.P99Nanos) }

// Snapshot loads the buckets once and derives count, mean and the
// p50/p95/p99 percentiles from that single consistent-enough view
// (concurrent writers may land between bucket loads; the skew is at
// most the writes of one scheduling quantum, fine for monitoring).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var counts [histBuckets]uint64
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	snap := HistogramSnapshot{Count: total}
	if total == 0 {
		return snap
	}
	snap.MeanNanos = int64(uint64(h.sum.Load()) / total)
	snap.P50Nanos = int64(percentileOf(&counts, total, 50))
	snap.P95Nanos = int64(percentileOf(&counts, total, 95))
	snap.P99Nanos = int64(percentileOf(&counts, total, 99))
	return snap
}

// Reset zeroes all buckets (test/experiment support; not atomic with
// respect to concurrent Record calls).
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.sum.Store(0)
}
