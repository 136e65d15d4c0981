package bench

import (
	"fmt"
	"io"
	goruntime "runtime"
	"time"

	"pretzel/internal/oven"
	"pretzel/internal/runtime"
	"pretzel/internal/store"
	"pretzel/internal/vector"
)

// runParscale measures data-parallel batch execution: one submitter
// pushes 256-record batch jobs through the batch engine while the
// executor count (and GOMAXPROCS) scales. Above one core each stage
// event splits into row-range subtasks that ride the work-stealing
// queues (plan.Fanout), so batched record throughput should scale with
// cores even though there is only ONE job in flight at a time — the
// scaling the per-job pipeline parallelism of fig12 cannot provide.
//
// Hard assertions (CI): with >= 2 cores the fan path must actually
// engage (parallel_stages > 0), and with >= 4 cores the cores=4
// configuration must reach >= 2.5x the cores=1 record throughput.
func runParscale(w io.Writer, env *Env) error {
	sa, err := env.SA()
	if err != nil {
		return err
	}
	files := sa.Files[:1]
	name := planNames(files)[0]
	const batch = 256
	iters := 200
	if env.Quick {
		iters = 40
	}

	cores := []int{1, 2, 4}
	if max := goruntime.NumCPU(); max >= 8 {
		cores = append(cores, 8)
	}

	fmt.Fprintf(w, "data-parallel batch execution: %d-record batch jobs, one submitter, grain=32:\n", batch)
	var base float64
	speedup := make(map[int]float64)
	for _, c := range cores {
		recs, stages, err := parscalePoint(files, name, sa.Set.TestInputs, c, batch, iters)
		if err != nil {
			return err
		}
		if base == 0 {
			base = recs
		}
		speedup[c] = recs / base
		fmt.Fprintf(w, "  cores=%-3d rec/s=%-12.0f speedup=%5.2fx parallel-stages=%d\n",
			c, recs, recs/base, stages)
		if c >= 2 && goruntime.NumCPU() >= 2 && stages == 0 {
			return fmt.Errorf("parscale: fan path never engaged at cores=%d (parallel_stages=0)", c)
		}
	}
	if goruntime.NumCPU() >= 4 {
		if s := speedup[4]; s < 2.5 {
			return fmt.Errorf("parscale: cores=4 speedup %.2fx < 2.5x over cores=1", s)
		}
	} else {
		fmt.Fprintf(w, "  (scaling assertion skipped: %d CPUs < 4)\n", goruntime.NumCPU())
	}
	return nil
}

// parscalePoint runs one (cores, batch) configuration: a fresh runtime
// with `cores` executors, a single-goroutine PredictBatch loop, and
// returns record throughput plus how many stage events fanned.
func parscalePoint(files []string, name string, inputs []string, cores, batch, iters int) (recs float64, parallelStages uint64, err error) {
	prev := goruntime.GOMAXPROCS(cores)
	defer goruntime.GOMAXPROCS(prev)

	objStore := store.New()
	rt := runtime.New(objStore, runtime.Config{Executors: cores})
	defer rt.Close()
	if _, err := loadPretzel(rt, objStore, files, oven.DefaultOptions()); err != nil {
		return 0, 0, err
	}
	ins := make([]*vector.Vector, batch)
	outs := make([]*vector.Vector, batch)
	for r := range ins {
		ins[r] = vector.New(0)
		ins[r].SetText(fmt.Sprintf("%s %d", inputs[r%len(inputs)], r))
		outs[r] = vector.New(0)
	}
	// Let the executor goroutines start and park: the fan path engages
	// only when spare (parked) executors exist to claim subtasks.
	time.Sleep(20 * time.Millisecond)
	for i := 0; i < 3; i++ {
		if err := rt.PredictRequestBatch(runtime.BatchRequest{Model: name, Ins: ins, Outs: outs}); err != nil {
			return 0, 0, err
		}
	}
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if err := rt.PredictRequestBatch(runtime.BatchRequest{Model: name, Ins: ins, Outs: outs}); err != nil {
			return 0, 0, err
		}
	}
	el := time.Since(t0).Seconds()
	return float64(iters*batch) / el, rt.SchedStats().ParallelStages, nil
}
