// Package metrics provides the measurement utilities the experiment
// harness uses: latency recorders with percentile/CDF extraction and heap
// usage snapshots.
package metrics

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Recorder collects latency samples. Safe for concurrent use.
type Recorder struct {
	mu      sync.Mutex
	samples []time.Duration
	sorted  bool
}

// NewRecorder returns an empty recorder with the given capacity hint.
func NewRecorder(capHint int) *Recorder {
	return &Recorder{samples: make([]time.Duration, 0, capHint)}
}

// Record appends one sample.
func (r *Recorder) Record(d time.Duration) {
	r.mu.Lock()
	r.samples = append(r.samples, d)
	r.sorted = false
	r.mu.Unlock()
}

// Count returns the number of samples.
func (r *Recorder) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.samples)
}

func (r *Recorder) ensureSorted() {
	if !r.sorted {
		sort.Slice(r.samples, func(i, j int) bool { return r.samples[i] < r.samples[j] })
		r.sorted = true
	}
}

// Percentile returns the p-th percentile (0 < p <= 100) using
// nearest-rank; zero duration when empty.
func (r *Recorder) Percentile(p float64) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.samples) == 0 {
		return 0
	}
	r.ensureSorted()
	rank := int(p/100*float64(len(r.samples))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(r.samples) {
		rank = len(r.samples) - 1
	}
	return r.samples[rank]
}

// Mean returns the arithmetic mean of the samples.
func (r *Recorder) Mean() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range r.samples {
		sum += s
	}
	return sum / time.Duration(len(r.samples))
}

// Max returns the maximum sample (the paper's "worst case").
func (r *Recorder) Max() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var m time.Duration
	for _, s := range r.samples {
		if s > m {
			m = s
		}
	}
	return m
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Value time.Duration
	Frac  float64 // fraction of samples <= Value, in (0,1]
}

// CDF returns an n-point empirical CDF (n evenly spaced quantiles).
func (r *Recorder) CDF(n int) []CDFPoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.samples) == 0 || n <= 0 {
		return nil
	}
	r.ensureSorted()
	pts := make([]CDFPoint, 0, n)
	for i := 1; i <= n; i++ {
		frac := float64(i) / float64(n)
		rank := int(frac*float64(len(r.samples))+0.5) - 1
		if rank < 0 {
			rank = 0
		}
		if rank >= len(r.samples) {
			rank = len(r.samples) - 1
		}
		pts = append(pts, CDFPoint{Value: r.samples[rank], Frac: frac})
	}
	return pts
}

// Summary formats count/mean/p50/p99/max on one line.
func (r *Recorder) Summary() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		r.Count(), r.Mean(), r.Percentile(50), r.Percentile(99), r.Max())
}

// HeapInUse runs a full GC and returns the live heap bytes. The memory
// experiments (Fig. 8) take the difference of two snapshots around a model
// load.
func HeapInUse() uint64 {
	runtime.GC()
	runtime.GC() // second cycle collects objects freed by finalizers of the first
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
