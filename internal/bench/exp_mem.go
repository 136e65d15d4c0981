package bench

import (
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"time"

	"pretzel/internal/blackbox"
	"pretzel/internal/metrics"
	"pretzel/internal/oven"
	"pretzel/internal/pipeline"
	"pretzel/internal/runtime"
	"pretzel/internal/store"
	"pretzel/internal/vector"
)

// memCurve is a cumulative-memory series: heap usage after loading the
// first k models, sampled at checkpoints.
type memCurve struct {
	label    string
	points   []int // model counts
	heap     []uint64
	loadTime time.Duration
}

// sampleEvery picks ~8 checkpoints over n models.
func sampleEvery(n int) int {
	s := n / 8
	if s < 1 {
		s = 1
	}
	return s
}

// runFig8 measures cumulative memory for the four configurations of
// Fig. 8 — PRETZEL, PRETZEL without Object Store, ML.Net (plain engine)
// and ML.Net+Clipper (containers) — over both pipeline categories, plus
// the §5.1 load-time comparison.
func runFig8(w io.Writer, env *Env) error {
	sa, err := env.SA()
	if err != nil {
		return err
	}
	ac, err := env.AC()
	if err != nil {
		return err
	}
	names := func(ps []*pipeline.Pipeline) []string {
		out := make([]string, len(ps))
		for i, p := range ps {
			out[i] = p.Name
		}
		return out
	}
	for _, set := range []struct {
		label string
		files []string
		names []string
	}{
		{"SA", sa.Files, names(sa.Set.Pipelines)},
		{"AC", ac.Files, names(ac.Set.Pipelines)},
	} {
		fmt.Fprintf(w, "[%s] cumulative heap after loading k models:\n", set.label)
		curves := []func() (*memCurve, error){
			func() (*memCurve, error) { return memPretzel(set.files, true) },
			func() (*memCurve, error) { return memPretzel(set.files, false) },
			func() (*memCurve, error) { return memBlackbox(set.files, set.names) },
			func() (*memCurve, error) { return memClipper(set.files, set.names, env) },
		}
		for _, build := range curves {
			c, err := build()
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  %-24s load=%-10v", c.label, c.loadTime.Round(time.Millisecond))
			for i, k := range c.points {
				fmt.Fprintf(w, " k=%d:%s", k, mb(c.heap[i]))
			}
			fmt.Fprintln(w)
			debug.FreeOSMemory()
		}
	}
	return nil
}

// memPretzel loads models into a PRETZEL runtime (with or without the
// Object Store) and samples the heap.
func memPretzel(files []string, withStore bool) (*memCurve, error) {
	label := "pretzel"
	var objStore *store.ObjectStore
	resolve := pipeline.DefaultResolver
	if withStore {
		objStore = store.New()
		resolve = cacheResolver(store.NewOpCache())
	} else {
		label = "pretzel(no ObjStore)"
	}
	rt := runtime.New(objStore, runtime.Config{Executors: 1})
	defer rt.Close()
	c := &memCurve{label: label}
	base := metrics.HeapInUse()
	every := sampleEvery(len(files))
	t0 := time.Now()
	var loadTotal time.Duration
	for i, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		p, err := pipeline.ImportBytesWith(raw, resolve)
		if err != nil {
			return nil, err
		}
		pl, err := oven.Compile(p, objStore, oven.DefaultOptions())
		if err != nil {
			return nil, err
		}
		if _, err := rt.Register(pl); err != nil {
			return nil, err
		}
		if (i+1)%every == 0 || i == len(files)-1 {
			loadTotal += time.Since(t0) // exclude GC sampling from load time
			c.points = append(c.points, i+1)
			c.heap = append(c.heap, heapDelta(base))
			t0 = time.Now()
		}
	}
	c.loadTime = loadTotal
	return c, nil
}

// memBlackbox loads + warms models in the ML.Net-style engine.
func memBlackbox(files []string, names []string) (*memCurve, error) {
	eng := blackbox.NewEngine()
	c := &memCurve{label: "ml.net(blackbox)"}
	base := metrics.HeapInUse()
	every := sampleEvery(len(files))
	t0 := time.Now()
	var loadTotal time.Duration
	for i, f := range files {
		if err := eng.LoadFile(names[i], f); err != nil {
			return nil, err
		}
		if err := eng.Warm(names[i]); err != nil {
			return nil, err
		}
		if (i+1)%every == 0 || i == len(files)-1 {
			loadTotal += time.Since(t0)
			c.points = append(c.points, i+1)
			c.heap = append(c.heap, heapDelta(base))
			t0 = time.Now()
		}
	}
	c.loadTime = loadTotal
	return c, nil
}

// memClipper deploys + warms one container per model.
func memClipper(files []string, names []string, env *Env) (*memCurve, error) {
	orch := blackbox.NewOrchestrator()
	defer orch.StopAll()
	c := &memCurve{label: "ml.net+clipper"}
	base := metrics.HeapInUse()
	every := sampleEvery(len(files))
	t0 := time.Now()
	var loadTotal time.Duration
	for i, f := range files {
		if err := orch.DeployFile(names[i], f); err != nil {
			return nil, err
		}
		if err := orch.Warm(names[i]); err != nil {
			return nil, err
		}
		if (i+1)%every == 0 || i == len(files)-1 {
			loadTotal += time.Since(t0)
			c.points = append(c.points, i+1)
			c.heap = append(c.heap, heapDelta(base))
			t0 = time.Now()
		}
	}
	c.loadTime = loadTotal
	return c, nil
}

// heapDelta returns live heap growth over the base snapshot.
func heapDelta(base uint64) uint64 {
	h := metrics.HeapInUse()
	if h < base {
		return 0
	}
	return h - base
}

// warmRuntime issues one prediction per model so pools and caches are
// primed (used by latency experiments).
func warmRuntime(rt *runtime.Runtime, names []string, input string, iters int) error {
	in, out := vector.New(0), vector.New(0)
	for _, n := range names {
		for k := 0; k < iters; k++ {
			in.SetText(input)
			if err := rt.PredictRequest(runtime.Request{Model: n, In: in, Out: out}); err != nil {
				return err
			}
		}
	}
	return nil
}
