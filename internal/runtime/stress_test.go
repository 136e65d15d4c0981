package runtime

import (
	"fmt"
	"runtime/debug"
	"sync"
	"testing"

	"pretzel/internal/oven"
	"pretzel/internal/vector"
)

// TestPredictZeroAlloc asserts the §4.2.1 claim end to end: a warm
// request-response prediction performs zero heap allocations — vectors
// come from the sharded pool in one batched visit, the execution
// context from the context pool, and fused kernels run on
// executor-owned scratch.
func TestPredictZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	rt, os := newRT(t, Config{Executors: 2})
	register(t, rt, os, saPipeline(t, "sa", 0), oven.DefaultOptions())
	in, out := vector.New(0), vector.New(0)
	const input = "a nice product that works great and nice again"
	// Warm: grow pooled buffers, populate the context pool.
	for i := 0; i < 100; i++ {
		in.SetText(input)
		if err := rt.PredictRequest(Request{Model: "sa", In: in, Out: out}); err != nil {
			t.Fatal(err)
		}
	}
	// GC off so a collection cannot clear sync.Pool mid-measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(200, func() {
		in.SetText(input)
		if err := rt.PredictRequest(Request{Model: "sa", In: in, Out: out}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Predict must not allocate, got %v allocs/run", allocs)
	}
}

// TestConcurrentEnginesStress hammers both engines from many goroutines
// at once — request-response PredictRequests racing batch-engine jobs over
// several plans — then checks the pool accounting invariants. Run with
// -race, it is the concurrency test for the sharded pool + sharded
// scheduler queues.
func TestConcurrentEnginesStress(t *testing.T) {
	rt, os := newRT(t, Config{Executors: 4})
	for i := 0; i < 3; i++ {
		register(t, rt, os, saPipeline(t, fmt.Sprintf("sa-%d", i), float32(i)), oven.DefaultOptions())
	}
	iters := 300
	if testing.Short() {
		iters = 50
	}
	var wg sync.WaitGroup
	// Request-response hammer.
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			in, out := vector.New(0), vector.New(0)
			for i := 0; i < iters; i++ {
				in.SetText("nice product refund bad great nice")
				if err := rt.PredictRequest(Request{Model: fmt.Sprintf("sa-%d", (id+i)%3), In: in, Out: out}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	// Batch hammer.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			const batch = 16
			ins := make([]*vector.Vector, batch)
			outs := make([]*vector.Vector, batch)
			for i := range ins {
				ins[i] = vector.New(0)
				ins[i].SetText("bad awful nice refund")
				outs[i] = vector.New(0)
			}
			for i := 0; i < iters/4; i++ {
				j, err := rt.SubmitRequestBatch(BatchRequest{Model: fmt.Sprintf("sa-%d", (id+i)%3), Ins: ins, Outs: outs})
				if err != nil {
					t.Error(err)
					return
				}
				if err := j.Wait(); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	for _, st := range []struct {
		name string
		s    vector.PoolStats
	}{
		{"request-response", rt.PoolStats()},
		{"batch-executors", rt.BatchPoolStats()},
	} {
		if st.s.Gets != st.s.Hits+st.s.Allocs {
			t.Errorf("%s pool: gets (%d) != hits (%d) + allocs (%d)", st.name, st.s.Gets, st.s.Hits, st.s.Allocs)
		}
		if st.s.Puts > st.s.Gets {
			t.Errorf("%s pool: puts (%d) > gets (%d)", st.name, st.s.Puts, st.s.Gets)
		}
		if st.s.Gets == 0 {
			t.Errorf("%s pool: expected traffic, got none", st.name)
		}
	}
}
