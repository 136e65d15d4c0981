package sched

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pretzel/internal/ml"
	"pretzel/internal/ops"
	"pretzel/internal/oven"
	"pretzel/internal/pipeline"
	"pretzel/internal/plan"
	"pretzel/internal/schema"
	"pretzel/internal/store"
	"pretzel/internal/text"
	"pretzel/internal/vector"
)

// saPlan compiles a small SA plan for scheduling tests.
func saPlan(t testing.TB, name string) *plan.Plan {
	t.Helper()
	cb, wb := text.NewDictBuilder(), text.NewDictBuilder()
	for _, doc := range []string{"nice product great", "bad refund awful"} {
		toks := text.Tokenize(doc, nil)
		for _, tok := range toks {
			text.ObserveCharNgrams(cb, []byte(tok), 2, 3)
		}
		text.ObserveWordNgrams(wb, toks, 2, nil)
	}
	cd, wd := cb.Build(0), wb.Build(0)
	weights := make([]float32, cd.Size()+wd.Size())
	if ix := wd.Lookup("nice"); ix >= 0 {
		weights[cd.Size()+int(ix)] = 3
	}
	p := &pipeline.Pipeline{
		Name:        name,
		InputSchema: schema.Text("Text"),
		Nodes: []pipeline.Node{
			{Op: &ops.Tokenizer{}, Inputs: []int{pipeline.InputID}},
			{Op: &ops.CharNgram{MinN: 2, MaxN: 3, Dict: cd}, Inputs: []int{0}},
			{Op: &ops.WordNgram{MaxN: 2, Dict: wd}, Inputs: []int{0}},
			{Op: &ops.Concat{Dims: []int{cd.Size(), wd.Size()}}, Inputs: []int{1, 2}},
			{Op: &ops.LinearPredictor{Model: &ml.LinearModel{Kind: ml.LogisticRegression, Weights: weights}}, Inputs: []int{3}},
		},
	}
	pl, err := oven.Compile(p, store.New(), oven.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestJobThroughScheduler(t *testing.T) {
	s := New(Config{Executors: 2})
	defer s.Close()
	pl := saPlan(t, "sa")
	// Reference via direct plan execution.
	ec := &plan.Exec{Pool: vector.NewPool()}
	in, want := vector.New(0), vector.New(0)
	in.SetText("a nice thing")
	if err := plan.RunPlan(pl, ec, in, want); err != nil {
		t.Fatal(err)
	}
	out := vector.New(0)
	j := NewJob(pl, in, out, nil)
	s.Submit(j)
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	if out.Dense[0] != want.Dense[0] {
		t.Fatalf("scheduled %v direct %v", out.Dense[0], want.Dense[0])
	}
}

func TestManyConcurrentJobs(t *testing.T) {
	s := New(Config{Executors: 4})
	defer s.Close()
	pl := saPlan(t, "sa")
	const n = 500
	jobs := make([]*Job, n)
	outs := make([]*vector.Vector, n)
	for i := 0; i < n; i++ {
		in := vector.New(0)
		if i%2 == 0 {
			in.SetText("nice nice product")
		} else {
			in.SetText("bad awful refund")
		}
		outs[i] = vector.New(0)
		jobs[i] = NewJob(pl, in, outs[i], nil)
		s.Submit(jobs[i])
	}
	for i, j := range jobs {
		if err := j.Wait(); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		if i%2 == 0 && outs[i].Dense[0] <= 0.5 {
			t.Fatalf("job %d positive scored %v", i, outs[i].Dense[0])
		}
		if i%2 == 1 && outs[i].Dense[0] > 0.5 {
			t.Fatalf("job %d negative scored %v", i, outs[i].Dense[0])
		}
	}
}

func TestFailedJobCompletes(t *testing.T) {
	s := New(Config{Executors: 2})
	defer s.Close()
	pl := saPlan(t, "sa")
	in := vector.New(0)
	in.SetDense([]float32{1, 2}) // wrong kind: head stage fails
	out := vector.New(0)
	j := NewJob(pl, in, out, nil)
	s.Submit(j)
	err := j.Wait()
	if err == nil {
		t.Fatal("job with bad input must fail")
	}
	if !strings.Contains(err.Error(), "stage 0") {
		t.Fatalf("error should name the stage: %v", err)
	}
}

func TestBranchingPlanThroughScheduler(t *testing.T) {
	// AC-style plan with parallel branch stages exercises multi-input
	// dependency counting.
	dim := 6
	xs := make([][]float32, 40)
	ys := make([]float32, 40)
	for i := range xs {
		x := make([]float32, dim)
		for j := range x {
			x[j] = float32((i + j) % 5)
		}
		xs[i] = x
		ys[i] = x[0]
	}
	pca, _ := ml.TrainPCA(xs, ml.PCAOptions{K: 2})
	km, _ := ml.TrainKMeans(xs, ml.KMeansOptions{K: 2})
	fx := make([][]float32, len(xs))
	for i, x := range xs {
		f := make([]float32, 4)
		pca.Project(x, f[:2])
		km.Distances(x, f[2:4])
		fx[i] = f
	}
	forest, _ := ml.TrainForest(fx, ys, ml.ForestOptions{NumTrees: 2, Tree: ml.TreeOptions{MaxDepth: 3}})
	p := &pipeline.Pipeline{
		Name:        "ac",
		InputSchema: schema.Text("Line"),
		Nodes: []pipeline.Node{
			{Op: &ops.ParseFloats{Sep: ',', Dim: dim}, Inputs: []int{pipeline.InputID}},
			{Op: &ops.PCATransform{Model: pca}, Inputs: []int{0}},
			{Op: &ops.KMeansTransform{Model: km}, Inputs: []int{0}},
			{Op: &ops.Concat{Dims: []int{2, 2}}, Inputs: []int{1, 2}},
			{Op: &ops.ForestPredictor{Model: forest}, Inputs: []int{3}},
		},
	}
	pl, err := oven.Compile(p, store.New(), oven.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Executors: 4})
	defer s.Close()
	ec := &plan.Exec{Pool: vector.NewPool()}
	in, want := vector.New(0), vector.New(0)
	in.SetText("1,2,3,4,0,1")
	if err := plan.RunPlan(pl, ec, in, want); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		out := vector.New(0)
		j := NewJob(pl, in, out, nil)
		s.Submit(j)
		if err := j.Wait(); err != nil {
			t.Fatal(err)
		}
		if out.Dense[0] != want.Dense[0] {
			t.Fatalf("iter %d: %v != %v", i, out.Dense[0], want.Dense[0])
		}
	}
}

func TestReservation(t *testing.T) {
	s := New(Config{Executors: 1})
	defer s.Close()
	if err := s.Reserve("vip", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Reserve("vip", 1); err == nil {
		t.Fatal("duplicate reservation must error")
	}
	if err := s.Reserve("bad", 0); err == nil {
		t.Fatal("zero cores must error")
	}
	pl := saPlan(t, "vip")
	in, out := vector.New(0), vector.New(0)
	in.SetText("nice")
	j := NewJob(pl, in, out, nil)
	s.Submit(j)
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	// Unreserved plans still run on the shared executors.
	other := saPlan(t, "other")
	j2 := NewJob(other, in, out, nil)
	s.Submit(j2)
	if err := j2.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	s := New(Config{Executors: 1})
	pl := saPlan(t, "sa")
	s.Close()
	s.Close() // idempotent
	in, out := vector.New(0), vector.New(0)
	in.SetText("x")
	j := NewJob(pl, in, out, nil)
	s.Submit(j)
	if err := j.Wait(); err == nil {
		t.Fatal("submit after close must fail the job")
	}
}

func TestQueuePriorities(t *testing.T) {
	q := newQueueSet(1)
	jA := &Job{}
	jB := &Job{}
	q.push(event{job: jA, stage: 0}, false, 0)
	q.push(event{job: jB, stage: 1}, true, 0)
	ev, ok := q.pop(0)
	if !ok || ev.job != jB {
		t.Fatal("high priority must be served first")
	}
	ev, ok = q.pop(0)
	if !ok || ev.job != jA {
		t.Fatal("low priority must follow")
	}
	q.close()
	if _, ok := q.pop(0); ok {
		t.Fatal("closed queue must report not-ok")
	}
	if q.push(event{}, true, 0) {
		t.Fatal("push after close must fail")
	}
}

func TestQueueFIFOWithinPriority(t *testing.T) {
	q := newQueueSet(1)
	for i := 0; i < 10; i++ {
		q.push(event{stage: i}, true, 0)
	}
	for i := 0; i < 10; i++ {
		ev, _ := q.pop(0)
		if ev.stage != i {
			t.Fatalf("order broken: got %d want %d", ev.stage, i)
		}
	}
}

func TestQueueWorkStealing(t *testing.T) {
	// Events pushed to shard 0 must be poppable by executor 3, and a
	// high-priority event on a FOREIGN shard must be served before a
	// low-priority event on the popper's OWN shard (the "started
	// pipelines drain first" invariant survives sharding).
	q := newQueueSet(4)
	jHigh := &Job{}
	jLow := &Job{}
	q.push(event{job: jLow, stage: 0}, false, 3) // own shard, low
	q.push(event{job: jHigh, stage: 1}, true, 0) // foreign shard, high
	ev, ok := q.pop(3)
	if !ok || ev.job != jHigh {
		t.Fatal("stolen high-priority event must beat own-shard low")
	}
	ev, ok = q.pop(3)
	if !ok || ev.job != jLow {
		t.Fatal("own low-priority event must follow")
	}
	// pushN lands a whole batch on one shard; any executor drains it.
	evs := []event{{stage: 10}, {stage: 11}, {stage: 12}}
	if !q.pushN(evs, false, 2) {
		t.Fatal("pushN on open queue must succeed")
	}
	for i := 0; i < 3; i++ {
		ev, ok := q.pop(1)
		if !ok || ev.stage != 10+i {
			t.Fatalf("batch drain order: got %v %v", ev.stage, ok)
		}
	}
	q.close()
	if q.pushN(evs, false, 0) {
		t.Fatal("pushN after close must fail")
	}
}

func TestSubmitRacingClose(t *testing.T) {
	// A Submit racing Close must never strand a job: every job either
	// completes or fails, so Wait always returns. (Regression: close()
	// once set the global closed flag before the shard flags, letting a
	// push land on a still-open shard after all executors had exited.)
	pl := saPlan(t, "sa")
	for iter := 0; iter < 200; iter++ {
		s := New(Config{Executors: 2})
		const n = 8
		jobs := make([]*Job, n)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				in, out := vector.New(0), vector.New(0)
				in.SetText("nice")
				jobs[i] = NewJob(pl, in, out, nil)
				s.Submit(jobs[i])
			}
		}()
		s.Close()
		wg.Wait()
		done := make(chan struct{})
		go func() {
			for _, j := range jobs {
				j.Wait() // error or nil both fine; hanging is the bug
			}
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("iter %d: job stranded after Submit/Close race", iter)
		}
	}
}

func TestJobWithCache(t *testing.T) {
	// Materializable plan scheduled with a cache: second job hits.
	cb, wb := text.NewDictBuilder(), text.NewDictBuilder()
	toks := text.Tokenize("nice product", nil)
	for _, tok := range toks {
		text.ObserveCharNgrams(cb, []byte(tok), 2, 3)
	}
	text.ObserveWordNgrams(wb, toks, 2, nil)
	cd, wd := cb.Build(0), wb.Build(0)
	weights := make([]float32, cd.Size()+wd.Size())
	p := &pipeline.Pipeline{
		Name:        "sa-mat",
		InputSchema: schema.Text("Text"),
		Nodes: []pipeline.Node{
			{Op: &ops.Tokenizer{}, Inputs: []int{pipeline.InputID}},
			{Op: &ops.CharNgram{MinN: 2, MaxN: 3, Dict: cd}, Inputs: []int{0}},
			{Op: &ops.WordNgram{MaxN: 2, Dict: wd}, Inputs: []int{0}},
			{Op: &ops.Concat{Dims: []int{cd.Size(), wd.Size()}}, Inputs: []int{1, 2}},
			{Op: &ops.LinearPredictor{Model: &ml.LinearModel{Kind: ml.LogisticRegression, Weights: weights}}, Inputs: []int{3}},
		},
	}
	pl, err := oven.Compile(p, store.New(), oven.Options{Materialization: true})
	if err != nil {
		t.Fatal(err)
	}
	cache := store.NewMatCache(1 << 20)
	s := New(Config{Executors: 2})
	defer s.Close()
	in := vector.New(0)
	in.SetText("nice product nice")
	for i := 0; i < 2; i++ {
		out := vector.New(0)
		j := NewJob(pl, in, out, cache)
		s.Submit(j)
		if err := j.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if cache.Stats().Hits == 0 {
		t.Fatal("second job should hit the materialization cache")
	}
}

func BenchmarkSchedulerThroughputSA(b *testing.B) {
	s := New(Config{Executors: 4})
	defer s.Close()
	pl := saPlan(b, "sa")
	in := vector.New(0)
	in.SetText("a nice product that works")
	b.ReportAllocs()
	b.ResetTimer()
	const window = 64
	outs := make([]*vector.Vector, window)
	jobs := make([]*Job, window)
	for i := range outs {
		outs[i] = vector.New(0)
	}
	for i := 0; i < b.N; i += window {
		n := window
		if b.N-i < n {
			n = b.N - i
		}
		for k := 0; k < n; k++ {
			jobs[k] = NewJob(pl, in, outs[k], nil)
			s.Submit(jobs[k])
		}
		for k := 0; k < n; k++ {
			if err := jobs[k].Wait(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func TestSchedulerStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	s := New(Config{Executors: 8})
	defer s.Close()
	plans := make([]*plan.Plan, 4)
	for i := range plans {
		plans[i] = saPlan(t, fmt.Sprintf("sa-%d", i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			in := vector.New(0)
			in.SetText("nice bad product refund great")
			for i := 0; i < 200; i++ {
				out := vector.New(0)
				j := NewJob(plans[(id+i)%len(plans)], in, out, nil)
				s.Submit(j)
				if err := j.Wait(); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestBatchJobMatchesSingles(t *testing.T) {
	s := New(Config{Executors: 4})
	defer s.Close()
	pl := saPlan(t, "sa")
	const n = 50
	ins := make([]*vector.Vector, n)
	outs := make([]*vector.Vector, n)
	singles := make([]*vector.Vector, n)
	for i := 0; i < n; i++ {
		ins[i] = vector.New(0)
		if i%3 == 0 {
			ins[i].SetText("nice nice product")
		} else {
			ins[i].SetText("bad refund")
		}
		outs[i] = vector.New(0)
		singles[i] = vector.New(0)
	}
	// Batched execution.
	bj := NewBatchJob(pl, ins, outs, nil)
	s.Submit(bj)
	if err := bj.Wait(); err != nil {
		t.Fatal(err)
	}
	// Single-record jobs as reference.
	for i := 0; i < n; i++ {
		j := NewJob(pl, ins[i], singles[i], nil)
		s.Submit(j)
		if err := j.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if outs[i].Dense[0] != singles[i].Dense[0] {
			t.Fatalf("record %d: batch %v single %v", i, outs[i].Dense[0], singles[i].Dense[0])
		}
	}
}

func TestBatchJobFailureNamesRecord(t *testing.T) {
	s := New(Config{Executors: 2})
	defer s.Close()
	pl := saPlan(t, "sa")
	ins := make([]*vector.Vector, 3)
	outs := make([]*vector.Vector, 3)
	for i := range ins {
		ins[i] = vector.New(0)
		ins[i].SetText("ok text")
		outs[i] = vector.New(0)
	}
	ins[1].SetDense([]float32{1}) // record 1 has the wrong kind
	j := NewBatchJob(pl, ins, outs, nil)
	s.Submit(j)
	err := j.Wait()
	if err == nil || !strings.Contains(err.Error(), "record 1") {
		t.Fatalf("expected record-1 failure, got %v", err)
	}
}

func TestBatchJobBranchingPlan(t *testing.T) {
	// Batched AC-style job: concurrent branch stages each sweep all
	// records; per-record outputs must stay consistent.
	dim := 4
	xs := [][]float32{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {1, 1, 1, 1}, {2, 0, 1, 0}}
	ys := []float32{1, 2, 3, 4, 5}
	pca, _ := ml.TrainPCA(xs, ml.PCAOptions{K: 2})
	km, _ := ml.TrainKMeans(xs, ml.KMeansOptions{K: 2})
	fx := make([][]float32, len(xs))
	for i, x := range xs {
		f := make([]float32, 4)
		pca.Project(x, f[:2])
		km.Distances(x, f[2:4])
		fx[i] = f
	}
	forest, _ := ml.TrainForest(fx, ys, ml.ForestOptions{NumTrees: 2, Tree: ml.TreeOptions{MaxDepth: 3, MinLeaf: 1}})
	p := &pipeline.Pipeline{
		Name:        "ac-batch",
		InputSchema: schema.Text("Line"),
		Nodes: []pipeline.Node{
			{Op: &ops.ParseFloats{Sep: ',', Dim: dim}, Inputs: []int{pipeline.InputID}},
			{Op: &ops.PCATransform{Model: pca}, Inputs: []int{0}},
			{Op: &ops.KMeansTransform{Model: km}, Inputs: []int{0}},
			{Op: &ops.Concat{Dims: []int{2, 2}}, Inputs: []int{1, 2}},
			{Op: &ops.ForestPredictor{Model: forest}, Inputs: []int{3}},
		},
	}
	pl, err := oven.Compile(p, store.New(), oven.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Executors: 4})
	defer s.Close()
	const n = 40
	ins := make([]*vector.Vector, n)
	outs := make([]*vector.Vector, n)
	want := make([]float32, n)
	ec := &plan.Exec{Pool: vector.NewPool()}
	ref := vector.New(0)
	for i := 0; i < n; i++ {
		ins[i] = vector.New(0)
		ins[i].SetText(fmt.Sprintf("%d,%d,%d,%d", i%3, (i+1)%2, i%5, 1))
		outs[i] = vector.New(0)
		if err := plan.RunPlan(pl, ec, ins[i], ref); err != nil {
			t.Fatal(err)
		}
		want[i] = ref.Dense[0]
	}
	j := NewBatchJob(pl, ins, outs, nil)
	s.Submit(j)
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if outs[i].Dense[0] != want[i] {
			t.Fatalf("record %d: batch %v reference %v", i, outs[i].Dense[0], want[i])
		}
	}
}

// TestQueueDepthAccounting: the per-shard hi/lo atomic counters roll up
// into queue depths on the queue set and into Scheduler.Stats, covering
// the shared set and reservations alike.
func TestQueueDepthAccounting(t *testing.T) {
	q := newQueueSet(2)
	if hi, lo := q.depth(); hi != 0 || lo != 0 {
		t.Fatalf("empty set depth hi=%d lo=%d", hi, lo)
	}
	q.push(event{stage: 0}, false, 0)
	q.push(event{stage: 1}, true, 1)
	q.pushN([]event{{stage: 2}, {stage: 3}}, false, 1)
	if hi, lo := q.depth(); hi != 1 || lo != 3 {
		t.Fatalf("depth after pushes hi=%d lo=%d, want 1/3", hi, lo)
	}
	if _, ok := q.pop(0); !ok {
		t.Fatal("pop")
	}
	if hi, lo := q.depth(); hi != 0 || lo != 3 {
		t.Fatalf("depth after high pop hi=%d lo=%d, want 0/3", hi, lo)
	}
	for i := 0; i < 3; i++ {
		if _, ok := q.pop(0); !ok {
			t.Fatal("pop low")
		}
	}
	if hi, lo := q.depth(); hi != 0 || lo != 0 {
		t.Fatalf("drained depth hi=%d lo=%d", hi, lo)
	}
	q.close()

	// Scheduler-level: an idle scheduler (with a reservation, so both
	// queue sets are swept) reports zero depth; after serving traffic it
	// returns to zero.
	s := New(Config{Executors: 1})
	defer s.Close()
	if err := s.Reserve("vip", 1); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.QueueHigh != 0 || st.QueueLow != 0 || s.QueueDepth() != 0 {
		t.Fatalf("idle stats %+v", st)
	}
	pl := saPlan(t, "vip")
	in, out := vector.New(0), vector.New(0)
	in.SetText("nice")
	j := NewJob(pl, in, out, nil)
	s.Submit(j)
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	if d := s.QueueDepth(); d != 0 {
		t.Fatalf("depth %d after drain", d)
	}
}

// TestExpiredJobShedding: jobs whose context or deadline expired are
// dropped before any stage dispatch and accounted in Stats.
func TestExpiredJobShedding(t *testing.T) {
	s := New(Config{Executors: 2})
	defer s.Close()
	pl := saPlan(t, "sa")
	in, out := vector.New(0), vector.New(0)
	in.SetText("nice")

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	j := NewJob(pl, in, out, nil)
	j.SetContext(ctx)
	s.Submit(j)
	if err := j.Wait(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}

	j2 := NewJob(pl, in, out, nil)
	j2.SetDeadline(time.Now().Add(-time.Second))
	s.Submit(j2)
	if err := j2.Wait(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline-only: want DeadlineExceeded, got %v", err)
	}

	st := s.Stats()
	if st.Submitted != 2 || st.Expired != 2 || st.Failed != 2 || st.Completed != 0 {
		t.Fatalf("stats %+v", st)
	}
	for i, stage := range pl.Stages {
		if ss := stage.Stats(); ss.Execs != 0 {
			t.Fatalf("stage %d ran %d times for expired jobs", i, ss.Execs)
		}
	}
}

// TestOnDoneAndPriority: the completion hook fires exactly once with
// the job error, for normal and high-priority submissions alike.
func TestOnDoneAndPriority(t *testing.T) {
	s := New(Config{Executors: 2})
	defer s.Close()
	pl := saPlan(t, "sa")
	for _, high := range []bool{false, true} {
		in, out := vector.New(0), vector.New(0)
		in.SetText("nice product")
		j := NewJob(pl, in, out, nil)
		j.SetHighPriority(high)
		fired := make(chan error, 2)
		j.SetOnDone(func(err error) { fired <- err })
		s.Submit(j)
		if err := j.Wait(); err != nil {
			t.Fatal(err)
		}
		if err := <-fired; err != nil {
			t.Fatalf("hook error %v", err)
		}
		select {
		case <-fired:
			t.Fatal("hook fired twice")
		default:
		}
	}
	st := s.Stats()
	if st.Completed != 2 || st.Failed != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestBatchJobOneExecPerStageEvent: the scheduler dispatches exactly
// ONE RunStageBatch call per stage event — the stage Execs counter
// moves by one per stage for a whole batched job, while Records moves
// by the batch size.
func TestBatchJobOneExecPerStageEvent(t *testing.T) {
	s := New(Config{Executors: 2})
	defer s.Close()
	pl := saPlan(t, "sa")
	const nRec = 32
	ins := make([]*vector.Vector, nRec)
	outs := make([]*vector.Vector, nRec)
	for i := range ins {
		ins[i] = vector.New(0)
		ins[i].SetText("a nice product")
		outs[i] = vector.New(0)
	}
	j := NewBatchJob(pl, ins, outs, nil)
	s.Submit(j)
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, stage := range pl.Stages {
		st := stage.Stats()
		if st.Execs != 1 {
			t.Fatalf("stage %d: %d executions for one batched stage event, want 1", i, st.Execs)
		}
		if st.Records != nRec {
			t.Fatalf("stage %d: records=%d, want %d", i, st.Records, nRec)
		}
	}
	// A second batch moves every stage by exactly one more execution.
	j2 := NewBatchJob(pl, ins, outs, nil)
	s.Submit(j2)
	if err := j2.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, stage := range pl.Stages {
		if st := stage.Stats(); st.Execs != 2 || st.Records != 2*nRec {
			t.Fatalf("stage %d after 2 batches: execs=%d records=%d", i, st.Execs, st.Records)
		}
	}
}
