package runtime

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"pretzel/internal/oven"
	"pretzel/internal/vector"
)

// settle parks the scheduler's executor goroutines. Fanning requires
// spare (parked) executors; on a single-core runner the freshly spawned
// executor goroutines may not have been scheduled at all yet, and an
// immediate submit loop can starve them forever — which ShouldFan
// correctly reads as "no spare capacity". A short pause lets them reach
// their queues and park.
func settle() { time.Sleep(20 * time.Millisecond) }

// TestParallelBatchEngages: with idle executors and a batch above the
// grain, stage events must actually fan out, and the new counters must
// move — parallel_stages, parallel_subtasks, and per-executor
// utilization (events + busy time on the originating executor at
// minimum).
func TestParallelBatchEngages(t *testing.T) {
	rt, os := newRT(t, Config{Executors: 4})
	register(t, rt, os, saPipeline(t, "sa", 0), oven.DefaultOptions())
	settle()
	const nRec = 128
	ins := make([]*vector.Vector, nRec)
	outs := make([]*vector.Vector, nRec)
	for r := range ins {
		ins[r] = vector.New(0)
		ins[r].SetText(fmt.Sprintf("nice product %d refund", r))
		outs[r] = vector.New(0)
	}
	// Submitted from one goroutine, the sibling executors are parked —
	// exactly the spare-capacity condition ShouldFan waits for.
	for i := 0; i < 20; i++ {
		if err := rt.PredictRequestBatch(BatchRequest{Model: "sa", Ins: ins, Outs: outs}); err != nil {
			t.Fatal(err)
		}
	}
	st := rt.SchedStats()
	if st.ParallelStages == 0 {
		t.Fatal("no stage event fanned out despite idle executors and batch >> grain")
	}
	if st.ParallelSubtasks < st.ParallelStages*2 {
		t.Fatalf("parallel_subtasks=%d for %d fanned stages: every fanned stage splits into >= 2 ranges",
			st.ParallelSubtasks, st.ParallelStages)
	}
	if len(st.ExecutorUtil) != 4 {
		t.Fatalf("executor_util has %d entries, want 4", len(st.ExecutorUtil))
	}
	var events, subtasks, busy uint64
	for _, u := range st.ExecutorUtil {
		events += u.Events
		subtasks += u.Subtasks
		busy += u.BusyNS
	}
	if events == 0 || busy == 0 {
		t.Fatalf("per-executor utilization did not move: events=%d busy=%d", events, busy)
	}
	if subtasks != st.ParallelSubtasks {
		t.Fatalf("per-executor subtasks sum %d != parallel_subtasks %d", subtasks, st.ParallelSubtasks)
	}
	if st.UptimeNS <= 0 {
		t.Fatal("uptime_ns must be positive")
	}
}

// TestParallelBatchStress is the -race stress for the data-parallel
// path: 16 goroutines push large batches through the fanned engine
// while a sibling model churns through register/unregister. After every
// PredictRequestBatch returns, the caller immediately overwrites its output
// vectors — if any subtask outlived its stage event and still wrote a
// row, the race detector catches the conflicting access.
func TestParallelBatchStress(t *testing.T) {
	rt, os := newRT(t, Config{Executors: 8})
	register(t, rt, os, saPipeline(t, "sa", 0), oven.DefaultOptions())
	settle()
	const nRec = 96
	// Single-threaded warmup: with every sibling executor parked the
	// fan path is guaranteed to engage before the stress begins.
	{
		ins := make([]*vector.Vector, nRec)
		outs := make([]*vector.Vector, nRec)
		for r := range ins {
			ins[r] = vector.New(0)
			ins[r].SetText(fmt.Sprintf("warm %d nice refund", r))
			outs[r] = vector.New(0)
		}
		for i := 0; i < 4; i++ {
			if err := rt.PredictRequestBatch(BatchRequest{Model: "sa", Ins: ins, Outs: outs}); err != nil {
				t.Fatal(err)
			}
		}
		if rt.SchedStats().ParallelStages == 0 {
			t.Fatal("warmup did not engage the parallel batch path")
		}
	}

	iters := 30
	if testing.Short() {
		iters = 8
	}
	var predictors, churner sync.WaitGroup
	stop := make(chan struct{})
	// Sibling churn: the catalog is mutated while the parallel path runs.
	churner.Add(1)
	go func() {
		defer churner.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("sib-%d", i%2)
			pl, err := oven.Compile(saPipeline(t, name, float32(i%5)), os, oven.DefaultOptions())
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := rt.Register(pl); err != nil {
				t.Error(err)
				return
			}
			if err := rt.Unregister(name); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < 16; g++ {
		predictors.Add(1)
		go func(id int) {
			defer predictors.Done()
			ins := make([]*vector.Vector, nRec)
			outs := make([]*vector.Vector, nRec)
			for r := range ins {
				ins[r] = vector.New(0)
				ins[r].SetText(fmt.Sprintf("nice product %d-%d bad refund", id, r))
				outs[r] = vector.New(0)
			}
			for i := 0; i < iters; i++ {
				if err := rt.PredictRequestBatch(BatchRequest{Model: "sa", Ins: ins, Outs: outs}); err != nil {
					t.Error(err)
					return
				}
				// The job is done: its outputs belong to the caller again.
				// A straggler subtask writing now is a detectable race.
				for r := range outs {
					outs[r].UseDense(1)[0] = -1
				}
			}
		}(g)
	}
	// Keep the catalog churning for the entire predictor run, then stop it.
	predictors.Wait()
	close(stop)
	churner.Wait()
	ps := rt.BatchPoolStats()
	if ps.Gets != ps.Hits+ps.Allocs {
		t.Fatalf("batch pool invariant violated: %+v", ps)
	}
}
