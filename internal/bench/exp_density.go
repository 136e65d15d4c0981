package bench

import (
	"fmt"
	"io"
	"time"

	"pretzel/internal/metrics"
	"pretzel/internal/oven"
	"pretzel/internal/runtime"
	"pretzel/internal/store"
	"pretzel/internal/vector"
	"pretzel/internal/workload"
)

// densityVariants sizes the experiment: the paper's target density is
// "many thousands" of variants on one node (§1, §6 runs 300 concurrent
// models per machine; the Object Store is built for far more).
func densityVariants(env *Env) int {
	if env.Quick {
		return 400
	}
	return 10000
}

// runDensity registers N final-layer-only model variants on one node
// with sharing fully enabled — parameter interning in the Object Store
// AND whole-stage interning in the plan store (materialization mode, so
// the featurization front is one shared stage) — and reports what each
// additional variant actually costs against its no-sharing footprint.
func runDensity(w io.Writer, env *Env) error {
	n := densityVariants(env)
	ds, err := workload.BuildDensity(n, env.Scale)
	if err != nil {
		return err
	}
	objStore := store.New()
	rt := runtime.New(objStore, runtime.Config{Executors: 1})
	defer rt.Close()
	opts := oven.Options{Materialization: true, Plans: rt.PlanStore()}

	heapBase := metrics.HeapInUse()
	t0 := time.Now()
	firstBytes := 0
	for i, p := range ds.Pipelines {
		pl, err := oven.Compile(p, objStore, opts)
		if err != nil {
			return fmt.Errorf("bench: compiling %s: %w", p.Name, err)
		}
		if _, err := rt.Register(pl); err != nil {
			return err
		}
		if i == 0 {
			firstBytes = rt.MemBytes()
		}
	}
	loadTime := time.Since(t0)

	total := rt.MemBytes()
	marginal := 0
	if n > 1 {
		marginal = (total - firstBytes) / (n - 1)
	}
	tail := ds.Models[0].MemBytes()
	noShare := firstBytes * n

	// Spot-check correctness through the shared stages: sampled variants
	// against the workload's reference scorer.
	in, out := vector.New(0), vector.New(0)
	var worst float64
	step := n/25 + 1
	for i := 0; i < n; i += step {
		for _, s := range ds.TestInputs[:3] {
			in.SetText(s)
			if err := rt.PredictRequest(runtime.Request{Model: fmt.Sprintf("dv-%05d", i), In: in, Out: out}); err != nil {
				return err
			}
			d := float64(out.Dense[0] - ds.Reference(i, s))
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
	}

	os := objStore.Stats()
	ps := rt.PlanStoreStats()
	fmt.Fprintf(w, "variants=%d (one featurization front, unique final layers)\n", n)
	fmt.Fprintf(w, "load: %v total, %.0f models/s\n",
		loadTime.Round(time.Millisecond), float64(n)/loadTime.Seconds())
	fmt.Fprintf(w, "accounted memory: total=%s first-variant=%s marginal/variant=%s (final layer alone=%s)\n",
		mb(uint64(total)), mb(uint64(firstBytes)), mb(uint64(marginal)), mb(uint64(tail)))
	fmt.Fprintf(w, "no-sharing estimate: %s  -> density gain %.1fx, live heap delta %s\n",
		mb(uint64(noShare)), float64(noShare)/float64(total), mb(heapDelta(heapBase)))
	fmt.Fprintf(w, "object store: unique=%d refs=%d bytes=%s saved=%s hits=%d misses=%d\n",
		os.Unique, os.Refs, mb(uint64(os.Bytes)), mb(uint64(os.BytesSaved)), os.Hits, os.Misses)
	fmt.Fprintf(w, "plan store: unique=%d refs=%d hits=%d misses=%d saved=%s\n",
		ps.Unique, ps.Refs, ps.Hits, ps.Misses, mb(uint64(ps.BytesSaved)))
	fmt.Fprintf(w, "prediction spot-check: max |plan - reference| = %.2g over %d variants x 3 inputs\n",
		worst, (n+step-1)/step)
	return nil
}
