package bench

import (
	"bytes"
	"fmt"
	"runtime/debug"
	"testing"

	"pretzel/internal/oven"
	"pretzel/internal/runtime"
	"pretzel/internal/store"
	"pretzel/internal/vector"
	"pretzel/internal/workload"
)

// TestDensityTenThousandVariants is the PR's acceptance test: 10,000
// final-layer-only variants registered on one node must cost roughly
// one full model plus 10,000 final layers — NOT 10,000 full models —
// while every variant keeps its own correct predictions and the warm
// predict path stays allocation-free. Unregistering everything must
// return the object store and the plan store exactly to empty.
func TestDensityTenThousandVariants(t *testing.T) {
	n := 10000
	if testing.Short() {
		n = 400
	}
	ds, err := workload.BuildDensity(n, workload.SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	objStore := store.New()
	rt := runtime.New(objStore, runtime.Config{Executors: 1})
	defer rt.Close()
	plans := rt.PlanStore()
	opts := oven.Options{Materialization: true, Plans: plans}

	stagesPerPlan := 0
	firstBytes := 0
	for i, p := range ds.Pipelines {
		pl, err := oven.Compile(p, objStore, opts)
		if err != nil {
			t.Fatalf("compiling %s: %v", p.Name, err)
		}
		if _, err := rt.Register(pl); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			stagesPerPlan = len(pl.Stages)
			firstBytes = rt.MemBytes()
		}
	}

	// The memory bound: one full variant plus n final layers, with 50%
	// slack for skeletons and per-stage overhead. Without sharing the
	// total would be ~n × firstBytes — orders of magnitude over this.
	tail := ds.Models[0].MemBytes()
	limit := (firstBytes + n*tail) * 3 / 2
	if total := rt.MemBytes(); total > limit {
		t.Fatalf("accounted bytes %d exceed 1.5x bound %d (first=%d tail=%d n=%d)",
			total, limit, firstBytes, tail, n)
	}

	// Plan-store shape: the featurization front (every stage except the
	// model-bearing score stage) is interned ONCE and referenced by all
	// n plans; each variant adds exactly its own score stage.
	ps := plans.Stats()
	wantUnique := (stagesPerPlan - 1) + n
	if ps.Unique != wantUnique {
		t.Fatalf("plan store holds %d unique stages, want %d (%d shared + %d per-variant)",
			ps.Unique, wantUnique, stagesPerPlan-1, n)
	}
	if want := uint64(n * stagesPerPlan); ps.Refs != want {
		t.Fatalf("plan store refs = %d, want %d", ps.Refs, want)
	}

	// The object store carries the two dictionaries once and one linear
	// model per variant.
	if os := objStore.Stats(); os.Unique != 2+n {
		t.Fatalf("object store holds %d unique params, want %d (2 dicts + %d models)",
			os.Unique, 2+n, n)
	}

	// Every variant must predict ITS OWN final layer's score through the
	// shared featurization stage.
	in, out := vector.New(0), vector.New(0)
	input := ds.TestInputs[0]
	for i := 0; i < n; i++ {
		in.SetText(input)
		name := fmt.Sprintf("dv-%05d", i)
		if err := rt.PredictRequest(runtime.Request{Model: name, In: in, Out: out}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := ds.Reference(i, input)
		if d := out.Dense[0] - want; d > 1e-4 || d < -1e-4 {
			t.Fatalf("%s predicted %v, reference %v", name, out.Dense[0], want)
		}
	}

	// Warm predictions through shared stages stay allocation-free. Under
	// the race detector sync.Pool drops items at random, so the count only
	// holds without it.
	if !raceEnabled {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		if allocs := testing.AllocsPerRun(100, func() {
			in.SetText(input)
			if err := rt.PredictRequest(runtime.Request{Model: "dv-00000", In: in, Out: out}); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("warm Predict allocates %v/run with shared stages", allocs)
		}
	}

	// Tear everything down: both stores must return exactly to empty.
	for i := 0; i < n; i++ {
		if err := rt.Unregister(fmt.Sprintf("dv-%05d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if c, b := objStore.Stats().Unique, objStore.MemBytes(); c != 0 || b != 0 {
		t.Fatalf("object store not drained: count=%d bytes=%d", c, b)
	}
	if c, b := plans.Stats().Unique, plans.MemBytes(); c != 0 || b != 0 {
		t.Fatalf("plan store not drained: count=%d bytes=%d", c, b)
	}
	if mem := rt.MemBytes(); mem != 0 {
		t.Fatalf("runtime still charges %d bytes with no models", mem)
	}
}

// TestDensityExperimentQuick smoke-runs the density driver at quick
// scale (it is part of TestAllExperimentsQuick too, but this keeps a
// focused failure signal).
func TestDensityExperimentQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("density driver skipped in -short")
	}
	var buf bytes.Buffer
	if err := Run(&buf, sharedEnv, "density"); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	t.Logf("\n%s", buf.String())
}

// BenchmarkDensityRegister measures the marginal cost of registering
// one more final-layer variant on a node already dense with them:
// compile (signature + interning hits) + catalog install + release.
func BenchmarkDensityRegister(b *testing.B) {
	ds, err := workload.BuildDensity(64, workload.SmallScale())
	if err != nil {
		b.Fatal(err)
	}
	objStore := store.New()
	rt := runtime.New(objStore, runtime.Config{Executors: 1})
	defer rt.Close()
	opts := oven.Options{Materialization: true, Plans: rt.PlanStore()}
	for _, p := range ds.Pipelines {
		pl, err := oven.Compile(p, objStore, opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rt.Register(pl); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := ds.Pipelines[i%len(ds.Pipelines)]
		pl, err := oven.Compile(p, objStore, opts)
		if err != nil {
			b.Fatal(err)
		}
		name := fmt.Sprintf("bench-%d", i)
		if _, err := rt.RegisterVersion(pl, name, 1); err != nil {
			b.Fatal(err)
		}
		if err := rt.Unregister(name); err != nil {
			b.Fatal(err)
		}
	}
}
