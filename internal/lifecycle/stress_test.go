package lifecycle

// Race-focused stress tests for the lifecycle tier: run with -race
// (CI does). The two hazards of a RAM-budgeted loader are a thundering
// herd on a cold model (must collapse to ONE load) and eviction racing
// in-flight predicts (must drain, never fail or corrupt).

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"pretzel/internal/serving"
	"pretzel/internal/workload"
)

func TestSingleFlightColdLoad(t *testing.T) {
	dir := t.TempDir()
	r := openRepo(t, dir)
	if _, err := r.Put("sa", 0, buildZip(t, "sa", 0)); err != nil {
		t.Fatal(err)
	}
	m := newManager(t, dir, Config{LazyLoad: true})

	// A 32-way herd hits the cold model at once: every request must
	// succeed and exactly one disk→RAM load may happen.
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			out, err := m.Predict(context.Background(), "sa", "a nice product", serving.PredictOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			if out[0] <= 0.5 {
				t.Errorf("score %v", out[0])
			}
		}()
	}
	close(start)
	wg.Wait()

	if got := m.coldLoads.Load(); got != 1 {
		t.Fatalf("cold loads = %d, want exactly 1 (single-flight)", got)
	}
	if got := m.coldStart.Snapshot().Count; got != 1 {
		t.Fatalf("cold-start histogram count = %d, want 1", got)
	}
}

func TestEvictionRacesInFlightPredicts(t *testing.T) {
	dir := t.TempDir()
	r := openRepo(t, dir)
	names := []string{"r0", "r1", "r2"}
	for i, name := range names {
		if _, err := r.Put(name, 0, buildZip(t, name, float32(i))); err != nil {
			t.Fatal(err)
		}
	}
	total := calibrate(t, dir)
	// Roughly one model fits: every cross-model switch forces an
	// eviction racing whatever is still in flight on the victim.
	m := newManager(t, dir, Config{RAMBudget: total/2 - 1, LazyLoad: true})

	var ok atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			z := workload.NewZipfPicker(len(names), 1.3, int64(g))
			for i := 0; i < 40; i++ {
				name := names[z.Pick()]
				out, err := m.Predict(context.Background(), name, "a nice product", serving.PredictOptions{})
				if err != nil {
					t.Errorf("predict %s: %v", name, err)
					return
				}
				if out[0] <= 0.5 {
					t.Errorf("predict %s: score %v", name, out[0])
					return
				}
				ok.Add(1)
			}
		}(g)
	}
	wg.Wait()

	if got := ok.Load(); got != 8*40 {
		t.Fatalf("successes = %d, want %d (eviction must never fail a request)", got, 8*40)
	}
	if m.evictions.Load() == 0 {
		t.Fatal("the stress must actually exercise eviction")
	}
	if got := m.ResidentBytes(); got < 0 {
		t.Fatalf("resident accounting went negative: %d", got)
	}
	// The books must balance: what is warm now is exactly what the
	// runtime holds (re-derive by evicting everything).
	m.loadMu.Lock()
	for m.evictOne(nil) {
	}
	m.loadMu.Unlock()
	if got := m.ResidentBytes(); got != 0 {
		t.Fatalf("after evicting everything, resident = %d, want 0", got)
	}
	if got := m.rt.MemBytes(); got != 0 {
		t.Fatalf("runtime still holds %d bytes after full eviction", got)
	}
}

func TestConcurrentRegisterAndPredict(t *testing.T) {
	dir := t.TempDir()
	m := newManager(t, dir, Config{LazyLoad: true})

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("c%d", g)
			if _, err := m.Register(buildZip(t, name, float32(g)), serving.RegisterOptions{}); err != nil {
				t.Errorf("register %s: %v", name, err)
				return
			}
			for i := 0; i < 8; i++ {
				if _, err := m.Predict(context.Background(), name, "a nice product", serving.PredictOptions{}); err != nil {
					t.Errorf("predict %s: %v", name, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := len(m.Models()); got != 4 {
		t.Fatalf("models = %d, want 4", got)
	}
}
