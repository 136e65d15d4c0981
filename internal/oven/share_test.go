package oven

import (
	"encoding/binary"
	"testing"

	"pretzel/internal/pipeline"
	"pretzel/internal/plan"
	"pretzel/internal/store"
	"pretzel/internal/vector"
)

// TestCompileSharesStagesAcrossIdenticalPipelines: two structurally
// identical pipelines compiled through one plan store must bind the
// SAME *Stage instances — whole-stage sharing, not just parameters —
// and releasing both plans must drain the store completely.
func TestCompileSharesStagesAcrossIdenticalPipelines(t *testing.T) {
	objStore := store.New()
	plans := plan.NewStageStore()
	opts := Options{Plans: plans}

	plA, err := Compile(buildSA(t, "a", 0), objStore, opts)
	if err != nil {
		t.Fatal(err)
	}
	plB, err := Compile(buildSA(t, "b", 0), objStore, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(plA.Stages) != len(plB.Stages) {
		t.Fatalf("stage counts differ: %d vs %d", len(plA.Stages), len(plB.Stages))
	}
	for i := range plA.Stages {
		if plA.Stages[i] != plB.Stages[i] {
			t.Fatalf("stage %d not shared: %p vs %p", i, plA.Stages[i], plB.Stages[i])
		}
		if !plA.Stages[i].Shared() {
			t.Fatalf("stage %d not marked shared", i)
		}
		if refs := plans.Refs(plA.Stages[i]); refs != 2 {
			t.Fatalf("stage %d refs = %d, want 2", i, refs)
		}
	}
	if st := plans.Stats(); st.Hits != uint64(len(plA.Stages)) || st.Unique != len(plA.Stages) {
		t.Fatalf("plan store stats: %+v, want hits=%d unique=%d", st, len(plA.Stages), len(plA.Stages))
	}

	// The shared plan must still predict: run plan B's stages (which ARE
	// plan A's stages).
	ec := newExec()
	in, out := vector.New(0), vector.New(0)
	in.SetText("a nice product")
	if err := plan.RunPlan(plB, ec, in, out); err != nil {
		t.Fatal(err)
	}
	if out.Dense[0] <= 0.5 {
		t.Fatalf("positive review scored %v", out.Dense[0])
	}

	ReleasePlan(objStore, plans, plA)
	if plans.Count() != len(plA.Stages) {
		t.Fatalf("after first release: %d unique stages, want %d", plans.Count(), len(plA.Stages))
	}
	ReleasePlan(objStore, plans, plB)
	if plans.Count() != 0 || plans.MemBytes() != 0 {
		t.Fatalf("plan store not drained: count=%d bytes=%d", plans.Count(), plans.MemBytes())
	}
	if objStore.Count() != 0 {
		t.Fatalf("object store not drained: %d params", objStore.Count())
	}
}

// TestCompileSharesFeaturizationAcrossVariants: two pipelines differing
// ONLY in their final linear layer, compiled with materialization, must
// share every stage except the model-bearing score stage — the 10,000-
// variants scenario where each new model costs only its own weights.
func TestCompileSharesFeaturizationAcrossVariants(t *testing.T) {
	objStore := store.New()
	plans := plan.NewStageStore()
	opts := Options{Materialization: true, Plans: plans}

	plA, err := Compile(buildSA(t, "a", 0), objStore, opts)
	if err != nil {
		t.Fatal(err)
	}
	plB, err := Compile(buildSA(t, "b", 0.5), objStore, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(plA.Stages) != len(plB.Stages) {
		t.Fatalf("stage counts differ: %d vs %d", len(plA.Stages), len(plB.Stages))
	}
	shared, unshared := 0, 0
	for i := range plA.Stages {
		if plA.Stages[i] == plB.Stages[i] {
			shared++
			continue
		}
		unshared++
		if kind := plB.Stages[i].Kernel().Kind(); kind != "linear-score" {
			t.Fatalf("unshared stage %d has kind %q, want linear-score", i, kind)
		}
	}
	if unshared != 1 || shared != len(plA.Stages)-1 {
		t.Fatalf("shared=%d unshared=%d over %d stages, want all but the score stage shared",
			shared, unshared, len(plA.Stages))
	}

	// Both variants must keep their own predictions through the shared
	// featurization front.
	ec := newExec()
	in, a, b := vector.New(0), vector.New(0), vector.New(0)
	in.SetText("is this a nice product then")
	if err := plan.RunPlan(plA, ec, in, a); err != nil {
		t.Fatal(err)
	}
	if err := plan.RunPlan(plB, ec, in, b); err != nil {
		t.Fatal(err)
	}
	if a.Dense[0] == b.Dense[0] {
		t.Fatalf("variant predictions identical (%v): final layers not applied", a.Dense[0])
	}

	ReleasePlan(objStore, plans, plA)
	ReleasePlan(objStore, plans, plB)
	if plans.Count() != 0 || objStore.Count() != 0 {
		t.Fatalf("stores not drained: plans=%d params=%d", plans.Count(), objStore.Count())
	}
}

// TestStageIDIsDerivedFromSig: a stage has one identity, its signature;
// Stage.ID is only its first 8 bytes, whatever the compile path. Every
// stage also leaves Compile with its kernel already built.
func TestStageIDIsDerivedFromSig(t *testing.T) {
	for _, withStore := range []bool{false, true} {
		for _, withPlans := range []bool{false, true} {
			for _, opts := range []Options{DefaultOptions(), {Materialization: true}} {
				var objStore *store.ObjectStore
				if withStore {
					objStore = store.New()
				}
				if withPlans {
					opts.Plans = plan.NewStageStore()
				}
				for _, p := range []*pipeline.Pipeline{buildSA(t, "sa", 0), buildAC(t, "ac")} {
					pl, err := Compile(p, objStore, opts)
					if err != nil {
						t.Fatal(err)
					}
					for i, s := range pl.Stages {
						if s.Sig == (plan.Sig{}) || s.ID != binary.LittleEndian.Uint64(s.Sig[:8]) {
							t.Fatalf("%s store=%v plans=%v %+v stage %d: ID %x, Sig %x",
								p.Name, withStore, withPlans, opts, i, s.ID, s.Sig)
						}
						if s.Kern == nil {
							t.Fatalf("%s store=%v plans=%v %+v stage %d: no kernel after Compile",
								p.Name, withStore, withPlans, opts, i)
						}
					}
				}
			}
		}
	}
}
