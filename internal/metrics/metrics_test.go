package metrics

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestRecorderPercentiles(t *testing.T) {
	r := NewRecorder(100)
	for i := 1; i <= 100; i++ {
		r.Record(time.Duration(i) * time.Millisecond)
	}
	if got := r.Percentile(50); got != 50*time.Millisecond {
		t.Fatalf("p50=%v", got)
	}
	if got := r.Percentile(99); got != 99*time.Millisecond {
		t.Fatalf("p99=%v", got)
	}
	if got := r.Percentile(100); got != 100*time.Millisecond {
		t.Fatalf("p100=%v", got)
	}
	if got := r.Max(); got != 100*time.Millisecond {
		t.Fatalf("max=%v", got)
	}
	if got := r.Mean(); got != 50500*time.Microsecond {
		t.Fatalf("mean=%v", got)
	}
	if r.Count() != 100 {
		t.Fatalf("count=%d", r.Count())
	}
}

func TestRecorderEmpty(t *testing.T) {
	r := NewRecorder(0)
	if r.Percentile(99) != 0 || r.Mean() != 0 || r.Max() != 0 {
		t.Fatal("empty recorder should return zeros")
	}
	if r.CDF(10) != nil {
		t.Fatal("empty CDF should be nil")
	}
	if r.Summary() == "" {
		t.Fatal("summary")
	}
}

func TestRecorderReset(t *testing.T) {
	r := NewRecorder(0)
	r.Record(time.Second)
	r.Reset()
	if r.Count() != 0 {
		t.Fatal("reset")
	}
}

func TestRecordAfterPercentile(t *testing.T) {
	r := NewRecorder(0)
	r.Record(2 * time.Millisecond)
	_ = r.Percentile(50)
	r.Record(1 * time.Millisecond) // out of order; must re-sort
	if got := r.Percentile(50); got != time.Millisecond {
		t.Fatalf("p50=%v", got)
	}
	if got := r.Percentile(100); got != 2*time.Millisecond {
		t.Fatalf("p100=%v", got)
	}
}

func TestCDFMonotone(t *testing.T) {
	r := NewRecorder(0)
	for i := 100; i >= 1; i-- {
		r.Record(time.Duration(i) * time.Microsecond)
	}
	pts := r.CDF(20)
	if len(pts) != 20 {
		t.Fatalf("points=%d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Value < pts[i-1].Value || pts[i].Frac <= pts[i-1].Frac {
			t.Fatalf("CDF not monotone at %d: %+v %+v", i, pts[i-1], pts[i])
		}
	}
	if pts[len(pts)-1].Frac != 1.0 {
		t.Fatal("last CDF point must be 1.0")
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Record(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if r.Count() != 4000 {
		t.Fatalf("count=%d", r.Count())
	}
}

func TestHeapInUse(t *testing.T) {
	before := HeapInUse()
	big := make([]byte, 32<<20)
	for i := range big {
		big[i] = byte(i)
	}
	after := HeapInUse()
	delta := int64(after) - int64(before)
	runtime.KeepAlive(big)
	if delta < 16<<20 {
		t.Fatalf("heap delta %d not reflecting 32MB allocation", delta)
	}
}
