package runtime

import (
	"fmt"
	"sync"
	"testing"

	"pretzel/internal/oven"
	"pretzel/internal/pipeline"
	"pretzel/internal/vector"
	"pretzel/internal/workload"
)

// TestRowDriverMatchesReferenceAllExamplePlans runs every example plan
// (SA with the linear model pushed down, SA with the materializable
// featurize stage, AC) through the one stage driver at batch sizes 1, 9
// and 65 — below and above the fan-out grain — on a one-executor
// (always sequential) and a four-executor (fanning) runtime. Every
// answer must agree with the unoptimized pipeline.Run reference within
// the oven tests' tolerance, and must be bit-identical across batch
// sizes, across engines (PredictRequest is a row of one through the
// same driver) and across the sequential and fanned runtimes. Run with
// -race this is also the concurrency check on the cache protocol.
func TestRowDriverMatchesReferenceAllExamplePlans(t *testing.T) {
	sc := workload.SmallScale()
	sc.SACount, sc.ACCount = 6, 4
	sa, err := workload.BuildSA(sc)
	if err != nil {
		t.Fatal(err)
	}
	ac, err := workload.BuildAC(sc)
	if err != nil {
		t.Fatal(err)
	}
	const maxBatch = 65
	for _, ex := range []struct {
		name   string
		pipes  []*pipeline.Pipeline
		inputs []string
		opts   oven.Options
		tol    float32
	}{
		{"sa-pushdown", sa.Pipelines, sa.TestInputs, oven.DefaultOptions(), 1e-5},
		{"sa-materialized", sa.Pipelines, sa.TestInputs, oven.Options{Materialization: true}, 1e-5},
		{"ac", ac.Pipelines, ac.TestInputs, oven.DefaultOptions(), 1e-4},
	} {
		t.Run(ex.name, func(t *testing.T) {
			ins := make([]*vector.Vector, maxBatch)
			for i := range ins {
				ins[i] = vector.New(0)
				ins[i].SetText(ex.inputs[i%len(ex.inputs)])
			}
			// Reference answers first, on the pipelines as trained.
			refs := make([][]*vector.Vector, len(ex.pipes))
			for pi, p := range ex.pipes {
				refs[pi] = make([]*vector.Vector, maxBatch)
				for i, in := range ins {
					refs[pi][i] = vector.New(0)
					if err := p.Run(in, refs[pi][i], nil); err != nil {
						t.Fatalf("%s reference: %v", p.Name, err)
					}
				}
			}
			seq, seqStore := newRT(t, Config{Executors: 1, MatCacheBytes: 32 << 20})
			fan, fanStore := newRT(t, Config{Executors: 4, MatCacheBytes: 32 << 20})
			for _, p := range ex.pipes {
				register(t, seq, seqStore, p, ex.opts)
				register(t, fan, fanStore, p, ex.opts)
			}
			settle() // park the executors so the 65-row batches fan
			for pi, p := range ex.pipes {
				// exact[i] is the first answer seen for record i; every
				// later run must reproduce it bit for bit.
				exact := make([]*vector.Vector, maxBatch)
				check := func(how string, outs []*vector.Vector) {
					t.Helper()
					for i, out := range outs {
						want := refs[pi][i]
						if len(out.Dense) != len(want.Dense) {
							t.Fatalf("%s %s record %d: %v, reference %v", p.Name, how, i, out, want)
						}
						for k := range want.Dense {
							if d := out.Dense[k] - want.Dense[k]; d > ex.tol || d < -ex.tol {
								t.Fatalf("%s %s record %d: %v, reference %v", p.Name, how, i, out, want)
							}
						}
						if exact[i] == nil {
							exact[i] = out
						} else if !out.Equal(exact[i]) {
							t.Fatalf("%s %s record %d: %v differs from an earlier run's %v", p.Name, how, i, out, exact[i])
						}
					}
				}
				for _, rt := range []*Runtime{seq, fan} {
					for _, n := range []int{1, 9, maxBatch} {
						outs := make([]*vector.Vector, n)
						for i := range outs {
							outs[i] = vector.New(0)
						}
						if err := rt.PredictRequestBatch(BatchRequest{Model: p.Name, Ins: ins[:n], Outs: outs}); err != nil {
							t.Fatalf("%s batch=%d: %v", p.Name, n, err)
						}
						check(fmt.Sprintf("batch=%d", n), outs)
					}
				}
				out := vector.New(0)
				if err := seq.PredictRequest(Request{Model: p.Name, In: ins[0], Out: out}); err != nil {
					t.Fatal(err)
				}
				check("request-response", []*vector.Vector{out})
			}
			if fan.SchedStats().ParallelStages == 0 {
				t.Fatal("no 65-row stage event fanned out on the four-executor runtime")
			}
			if seq.SchedStats().ParallelStages != 0 {
				t.Fatal("a one-executor runtime has nobody to fan to")
			}
			if ex.opts.Materialization && fan.MatCacheStats().Hits == 0 {
				t.Fatal("repeated inputs never hit the materialization cache")
			}
		})
	}
}

// TestConcurrentBatchJobsSharedMatCache is the -race stress test of the
// sharded materialization cache: many concurrent batched jobs over
// overlapping inputs, all probing and filling the same cache, must
// stay correct and keep the pool accounting balanced.
func TestConcurrentBatchJobsSharedMatCache(t *testing.T) {
	rt, os := newRT(t, Config{Executors: 4, MatCacheBytes: 1 << 20})
	opts := oven.Options{Materialization: true}
	for i := 0; i < 3; i++ {
		register(t, rt, os, saPipeline(t, fmt.Sprintf("sa-%d", i), float32(i)), opts)
	}
	docs := []string{
		"nice product great", "bad refund awful", "nice nice", "product product bad",
		"great wonderful nice", "broken awful product", "refund", "nice",
	}
	// Per-model reference outputs through the request-response engine.
	want := make(map[string][]float32)
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("sa-%d", i)
		vals := make([]float32, len(docs))
		in, out := vector.New(0), vector.New(0)
		for d, doc := range docs {
			in.SetText(doc)
			if err := rt.PredictRequest(Request{Model: name, In: in, Out: out}); err != nil {
				t.Fatal(err)
			}
			vals[d] = out.Dense[0]
		}
		want[name] = vals
	}
	iters := 60
	if testing.Short() {
		iters = 10
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			const batch = 16
			ins := make([]*vector.Vector, batch)
			outs := make([]*vector.Vector, batch)
			for i := range ins {
				ins[i] = vector.New(0)
				ins[i].SetText(docs[(id+i)%len(docs)])
				outs[i] = vector.New(0)
			}
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("sa-%d", (id+i)%3)
				if err := rt.PredictRequestBatch(BatchRequest{Model: name, Ins: ins, Outs: outs}); err != nil {
					t.Error(err)
					return
				}
				for r := range outs {
					if got := outs[r].Dense[0]; got != want[name][(id+r)%len(docs)] {
						t.Errorf("goroutine %d iter %d record %d: got %v want %v",
							id, i, r, got, want[name][(id+r)%len(docs)])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	cs := rt.MatCacheStats()
	if cs.Hits == 0 {
		t.Fatalf("overlapping batches never hit the shared cache: %+v", cs)
	}
	ps := rt.BatchPoolStats()
	if ps.Gets != ps.Hits+ps.Allocs || ps.Puts > ps.Gets {
		t.Fatalf("batch pool accounting broken: %+v", ps)
	}
}
