// Package pretzel's root benchmark suite: one testing.B benchmark per
// table/figure of the paper's evaluation, measuring the core operation
// each experiment is about, plus the end-to-end experiment drivers
// behind -bench. Full regeneration of every table/figure (with printed
// rows) is `go run ./cmd/pretzel-bench -exp all`.
package pretzel_test

import (
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"pretzel/internal/bench"
	"pretzel/internal/blackbox"
	"pretzel/internal/ml"
	"pretzel/internal/ops"
	"pretzel/internal/oven"
	"pretzel/internal/pipeline"
	"pretzel/internal/plan"
	"pretzel/internal/runtime"
	"pretzel/internal/sched"
	"pretzel/internal/store"
	"pretzel/internal/vector"
	"pretzel/internal/workload"
)

// benchEnv caches the quick-scale workload across benchmarks.
var (
	benchEnvOnce sync.Once
	benchEnvVal  *bench.Env
)

func benchEnv(b *testing.B) *bench.Env {
	benchEnvOnce.Do(func() {
		e := bench.QuickEnv()
		e.Scale = workload.SmallScale()
		e.Scale.SACount = 32
		e.Scale.ACCount = 16
		e.HotIters = 10
		e.LoadPoints = []int{200}
		e.LoadWindow = 250 * time.Millisecond
		benchEnvVal = e
	})
	return benchEnvVal
}

// saServing builds a warm PRETZEL runtime over the SA workload.
func saServing(b *testing.B, cfg runtime.Config, opts oven.Options) (*runtime.Runtime, []string, string) {
	b.Helper()
	env := benchEnv(b)
	sa, err := env.SA()
	if err != nil {
		b.Fatal(err)
	}
	objStore := store.New()
	rt := runtime.New(objStore, cfg)
	b.Cleanup(rt.Close)
	names := make([]string, len(sa.Set.Pipelines))
	for i, p := range sa.Set.Pipelines {
		pl, err := oven.Compile(mustImport(b, sa.Files[i]), objStore, opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rt.Register(pl); err != nil {
			b.Fatal(err)
		}
		names[i] = p.Name
	}
	in, out := vector.New(0), vector.New(0)
	for _, n := range names {
		in.SetText(sa.Set.TestInputs[0])
		if err := rt.PredictRequest(runtime.Request{Model: n, In: in, Out: out}); err != nil {
			b.Fatal(err)
		}
	}
	return rt, names, sa.Set.TestInputs[0]
}

func mustImport(b *testing.B, path string) *pipeline.Pipeline {
	b.Helper()
	p, err := importFile(path)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// importFile reads a model file and deserializes the pipeline.
func importFile(path string) (*pipeline.Pipeline, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return pipeline.ImportBytes(raw)
}

// BenchmarkFig9LatencyPretzelHotSA measures the hot request-response
// path (the per-prediction core of Fig. 9).
func BenchmarkFig9LatencyPretzelHotSA(b *testing.B) {
	rt, names, input := saServing(b, runtime.Config{Executors: 2}, oven.DefaultOptions())
	in, out := vector.New(0), vector.New(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.SetText(input)
		if err := rt.PredictRequest(runtime.Request{Model: names[i%len(names)], In: in, Out: out}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9LatencyMLNetHotSA is the baseline counterpart.
func BenchmarkFig9LatencyMLNetHotSA(b *testing.B) {
	env := benchEnv(b)
	sa, err := env.SA()
	if err != nil {
		b.Fatal(err)
	}
	eng := blackbox.NewEngine()
	names := make([]string, len(sa.Set.Pipelines))
	for i, p := range sa.Set.Pipelines {
		names[i] = p.Name
		if err := eng.LoadFile(p.Name, sa.Files[i]); err != nil {
			b.Fatal(err)
		}
	}
	in, out := vector.New(0), vector.New(0)
	in.SetText(sa.Set.TestInputs[0])
	for _, n := range names {
		if err := eng.Predict(n, in, out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.SetText(sa.Set.TestInputs[0])
		if err := eng.Predict(names[i%len(names)], in, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10Materialization measures the cached featurization path.
func BenchmarkFig10Materialization(b *testing.B) {
	rt, names, input := saServing(b,
		runtime.Config{Executors: 2, MatCacheBytes: 64 << 20},
		oven.Options{Materialization: true})
	in, out := vector.New(0), vector.New(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.SetText(input)
		if err := rt.PredictRequest(runtime.Request{Model: names[i%len(names)], In: in, Out: out}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12BatchEngineThroughput measures batch-engine jobs/s (the
// per-record core of Fig. 12) at GOMAXPROCS executors.
func BenchmarkFig12BatchEngineThroughput(b *testing.B) {
	rt, names, input := saServing(b, runtime.Config{Executors: 4}, oven.DefaultOptions())
	in := vector.New(0)
	in.SetText(input)
	b.ReportAllocs()
	b.ResetTimer()
	const window = 64
	outs := make([]*vector.Vector, window)
	for i := range outs {
		outs[i] = vector.New(0)
	}
	done := 0
	for done < b.N {
		k := window
		if b.N-done < k {
			k = b.N - done
		}
		jobs := make([]interface{ Wait() error }, k)
		for i := 0; i < k; i++ {
			j, err := rt.SubmitRequestBatch(runtime.BatchRequest{
				Model: names[(done+i)%len(names)],
				Ins:   []*vector.Vector{in},
				Outs:  []*vector.Vector{outs[i]},
			})
			if err != nil {
				b.Fatal(err)
			}
			jobs[i] = j
		}
		for i := 0; i < k; i++ {
			if err := jobs[i].Wait(); err != nil {
				b.Fatal(err)
			}
		}
		done += k
	}
}

// BenchmarkFig8RegisterPlan measures the off-line phase cost per model
// (import + compile + register with Object Store dedup), the operation
// behind Fig. 8's load-time comparison.
func BenchmarkFig8RegisterPlan(b *testing.B) {
	env := benchEnv(b)
	sa, err := env.SA()
	if err != nil {
		b.Fatal(err)
	}
	objStore := store.New()
	rt := runtime.New(objStore, runtime.Config{Executors: 1})
	defer rt.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := importFile(sa.Files[i%len(sa.Files)])
		if err != nil {
			b.Fatal(err)
		}
		p.Name = fmt.Sprintf("%s-%d", p.Name, i)
		pl, err := oven.Compile(p, objStore, oven.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rt.Register(pl); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4ColdMaterialization measures the baseline's cold path
// (model read + deserialization + chain build), the dominant cost in
// Fig. 4.
func BenchmarkFig4ColdMaterialization(b *testing.B) {
	env := benchEnv(b)
	sa, err := env.SA()
	if err != nil {
		b.Fatal(err)
	}
	in, out := vector.New(0), vector.New(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := blackbox.NewEngine()
		name := sa.Set.Pipelines[i%len(sa.Files)].Name
		if err := eng.LoadFile(name, sa.Files[i%len(sa.Files)]); err != nil {
			b.Fatal(err)
		}
		in.SetText(sa.Set.TestInputs[0])
		if err := eng.Predict(name, in, out); err != nil {
			b.Fatal(err)
		}
	}
}

// --- full experiment drivers as benchmarks (run once per -bench run) ---

// experimentBenchmark wires a table/figure driver into testing.B: the
// driver runs once and its wall time is reported; series output goes to
// stderr when -v is set.
func experimentBenchmark(b *testing.B, id string) {
	env := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var w io.Writer = io.Discard
		if testing.Verbose() {
			w = os.Stderr
		}
		if err := bench.Run(w, env, id); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExpTable1(b *testing.B)      { experimentBenchmark(b, "table1") }
func BenchmarkExpFig3(b *testing.B)        { experimentBenchmark(b, "fig3") }
func BenchmarkExpFig4(b *testing.B)        { experimentBenchmark(b, "fig4") }
func BenchmarkExpFig5(b *testing.B)        { experimentBenchmark(b, "fig5") }
func BenchmarkExpColdSplit(b *testing.B)   { experimentBenchmark(b, "coldsplit") }
func BenchmarkExpFig8(b *testing.B)        { experimentBenchmark(b, "fig8") }
func BenchmarkExpFig9(b *testing.B)        { experimentBenchmark(b, "fig9") }
func BenchmarkExpFig10(b *testing.B)       { experimentBenchmark(b, "fig10") }
func BenchmarkExpFig11(b *testing.B)       { experimentBenchmark(b, "fig11") }
func BenchmarkExpFig12(b *testing.B)       { experimentBenchmark(b, "fig12") }
func BenchmarkExpFig13(b *testing.B)       { experimentBenchmark(b, "fig13") }
func BenchmarkExpReservation(b *testing.B) { experimentBenchmark(b, "reservation") }
func BenchmarkExpFig14(b *testing.B)       { experimentBenchmark(b, "fig14") }
func BenchmarkExpBatchSweep(b *testing.B)  { experimentBenchmark(b, "batchsweep") }
func BenchmarkExpParscale(b *testing.B)    { experimentBenchmark(b, "parscale") }
func BenchmarkExpOverload(b *testing.B)    { experimentBenchmark(b, "overload") }

// BenchmarkBatchStage measures single-stage record throughput of a
// LinearScore stage across batch sizes, through the one stage driver:
//
//   - batched:     one RunStageBatch event over the whole row — timing
//     reads and metric updates paid once per batch
//   - per-record:  one RunStageBatch event per record (rows of one, what
//     the request-response engine runs), paying them per record
//
// One iteration = the whole batch through the stage; rec/s is the
// record throughput. This is the microbench behind the batchsweep
// experiment.
func BenchmarkBatchStage(b *testing.B) {
	const dim = 1 << 14
	const nnz = 16
	weights := make([]float32, dim)
	for i := range weights {
		weights[i] = float32(i%7) * 0.125
	}
	model := &ml.LinearModel{Kind: ml.LogisticRegression, Weights: weights}
	st := &plan.Stage{
		ID:   0xBA7C4,
		Kern: &plan.LinearScoreKernel{Model: model},
		Ops:  []ops.Op{&ops.LinearPredictor{Model: model}},
	}
	for _, batch := range []int{1, 8, 64, 256} {
		for _, mode := range []string{"batched", "per-record"} {
			b.Run(fmt.Sprintf("batch=%d/%s", batch, mode), func(b *testing.B) {
				ec := &plan.Exec{Pool: vector.NewPool()}
				insRows := make([][]*vector.Vector, batch)
				outs := make([]*vector.Vector, batch)
				for r := 0; r < batch; r++ {
					in := vector.New(0)
					in.UseSparse(dim)
					for k := 0; k < nnz; k++ {
						in.AppendSparse(int32((r+k*251)%dim), 1)
					}
					in.SortSparse()
					insRows[r] = []*vector.Vector{in}
					outs[r] = vector.New(1)
				}
				b.ReportAllocs()
				b.ResetTimer()
				if mode == "per-record" {
					for i := 0; i < b.N; i++ {
						for r := 0; r < batch; r++ {
							if err := plan.RunStageBatch(st, ec, insRows[r:r+1], outs[r:r+1], nil); err != nil {
								b.Fatal(err)
							}
						}
					}
				} else {
					for i := 0; i < b.N; i++ {
						if err := plan.RunStageBatch(st, ec, insRows, outs, nil); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "rec/s")
			})
		}
	}
}

// BenchmarkBatchStageParallel measures full-pipeline record throughput
// of one 256-record batch job at a time through the batch engine at
// fixed executor counts: the fan-out path (row-range subtasks on the
// work-stealing queues) is the only source of parallelism, because a
// single job's stage events are otherwise sequential. The cpus axis is
// encoded in the sub-benchmark NAME — benchgate strips testing's "-N"
// GOMAXPROCS suffix, and -cpu fixes sub names at discovery time — so
// each sub pins GOMAXPROCS itself.
func BenchmarkBatchStageParallel(b *testing.B) {
	const batch = 256
	env := benchEnv(b)
	sa, err := env.SA()
	if err != nil {
		b.Fatal(err)
	}
	for _, cpus := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("batch=%d/cpus=%d", batch, cpus), func(b *testing.B) {
			prev := goruntime.GOMAXPROCS(cpus)
			defer goruntime.GOMAXPROCS(prev)
			pl, err := oven.Compile(mustImport(b, sa.Files[0]), store.New(), oven.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			s := sched.New(sched.Config{Executors: cpus})
			defer s.Close()
			ins := make([]*vector.Vector, batch)
			outs := make([]*vector.Vector, batch)
			for r := range ins {
				in := vector.New(0)
				in.SetText(fmt.Sprintf("%s %d", sa.Set.TestInputs[r%len(sa.Set.TestInputs)], r))
				ins[r] = in
				outs[r] = vector.New(0)
			}
			// Executors must have started and parked before ShouldFan
			// can see spare capacity (a single core never preempts the
			// submit loop to let them).
			time.Sleep(20 * time.Millisecond)
			for i := 0; i < 2; i++ {
				j := sched.NewBatchJob(pl, ins, outs, nil)
				s.Submit(j)
				if err := j.Wait(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := sched.NewBatchJob(pl, ins, outs, nil)
				s.Submit(j)
				if err := j.Wait(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "rec/s")
		})
	}
}
