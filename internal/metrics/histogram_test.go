package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	if b := bucketFor(0); b != 0 {
		t.Fatalf("bucketFor(0)=%d", b)
	}
	if b := bucketFor(1); b != 1 {
		t.Fatalf("bucketFor(1)=%d", b)
	}
	// 2^(k-1) and 2^k - 1 land in bucket k.
	for k := 1; k < 63; k++ {
		lo, hi := int64(1)<<(k-1), int64(1)<<k-1
		if bucketFor(lo) != k || bucketFor(hi) != k {
			t.Fatalf("bucket %d: lo=%d hi=%d", k, bucketFor(lo), bucketFor(hi))
		}
		if up := bucketUpper(k); up != hi {
			t.Fatalf("bucketUpper(%d)=%d want %d", k, up, hi)
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s.Count != 0 || s.MeanNanos != 0 || h.Percentile(99) != 0 {
		t.Fatal("empty histogram must read zero")
	}
	if s := h.Snapshot(); s.Count != 0 || s.P99Nanos != 0 {
		t.Fatalf("empty snapshot %+v", s)
	}
}

func TestHistogramPercentiles(t *testing.T) {
	var h Histogram
	// 90 fast samples (~1µs) and 10 slow ones (~1ms).
	for i := 0; i < 90; i++ {
		h.Record(time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Record(time.Millisecond)
	}
	if h.Snapshot().Count != 100 {
		t.Fatalf("count=%d", h.Snapshot().Count)
	}
	p50, p95, p99 := h.Percentile(50), h.Percentile(95), h.Percentile(99)
	// p50 resolves inside the microsecond bucket (upper bound < 2µs),
	// p95/p99 inside the millisecond bucket (upper bound < 2ms).
	if p50 < time.Microsecond || p50 >= 2*time.Microsecond {
		t.Fatalf("p50=%v", p50)
	}
	if p95 < time.Millisecond || p95 >= 2*time.Millisecond {
		t.Fatalf("p95=%v", p95)
	}
	if p99 < p95 {
		t.Fatalf("p99=%v < p95=%v", p99, p95)
	}
	// Upper-bound resolution must never under-report a sample.
	if h.Percentile(100) < time.Millisecond {
		t.Fatalf("p100=%v under-reports", h.Percentile(100))
	}
	mean := time.Duration(h.Snapshot().MeanNanos)
	if mean < 50*time.Microsecond || mean > 200*time.Microsecond {
		t.Fatalf("mean=%v", mean)
	}
	snap := h.Snapshot()
	if snap.Count != 100 || snap.P50() != p50 || snap.P95() != p95 || snap.P99() != p99 {
		t.Fatalf("snapshot %+v vs %v/%v/%v", snap, p50, p95, p99)
	}
	h.Reset()
	if h.Snapshot().Count != 0 || h.Snapshot().P99Nanos != 0 {
		t.Fatal("reset must zero the histogram")
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Record(-time.Second)
	if h.Snapshot().Count != 1 || h.Percentile(100) != 0 {
		t.Fatalf("negative sample must clamp to 0: count=%d p100=%v", h.Snapshot().Count, h.Percentile(100))
	}
}

// TestHistogramConcurrent hammers Record from many goroutines; with
// -race this is the lock-freedom test, and the total count must balance.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(time.Duration(g*1000+i) * time.Nanosecond)
			}
		}(g)
	}
	wg.Wait()
	if h.Snapshot().Count != goroutines*per {
		t.Fatalf("count=%d want %d", h.Snapshot().Count, goroutines*per)
	}
}

// TestHistogramRecordAllocFree asserts Record performs zero heap
// allocations — the property that lets the runtime record per-model
// latency inside the zero-alloc warm Predict path.
func TestHistogramRecordAllocFree(t *testing.T) {
	var h Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		h.Record(123 * time.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %v/run", allocs)
	}
}
