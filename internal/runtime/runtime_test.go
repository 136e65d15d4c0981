package runtime

import (
	"errors"
	"fmt"
	"sync"
	"testing"

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

// saPipeline builds a deterministic SA pipeline; bump differentiates the
// model weights while keeping the dictionaries shared.
func saPipeline(t testing.TB, name string, bump float32) *pipeline.Pipeline {
	t.Helper()
	cb, wb := text.NewDictBuilder(), text.NewDictBuilder()
	for _, doc := range []string{"nice product great wonderful", "bad refund awful broken"} {
		toks := text.Tokenize(doc, nil)
		for _, tok := range toks {
			text.ObserveCharNgrams(cb, []byte(tok), 2, 3)
		}
		text.ObserveWordNgrams(wb, toks, 2, nil)
	}
	cd, wd := cb.Build(0), wb.Build(0)
	weights := make([]float32, cd.Size()+wd.Size())
	if ix := wd.Lookup("nice"); ix >= 0 {
		weights[cd.Size()+int(ix)] = 3 + bump
	}
	return &pipeline.Pipeline{
		Name:        name,
		InputSchema: schema.Text("Text"),
		Stats:       pipeline.Stats{MaxVectorSize: cd.Size() + wd.Size(), SparseOutput: true},
		Nodes: []pipeline.Node{
			{Op: &ops.Tokenizer{}, Inputs: []int{pipeline.InputID}},
			{Op: &ops.CharNgram{MinN: 2, MaxN: 3, Dict: cd}, Inputs: []int{0}},
			{Op: &ops.WordNgram{MaxN: 2, Dict: wd}, Inputs: []int{0}},
			{Op: &ops.Concat{Dims: []int{cd.Size(), wd.Size()}}, Inputs: []int{1, 2}},
			{Op: &ops.LinearPredictor{Model: &ml.LinearModel{Kind: ml.LogisticRegression, Weights: weights}}, Inputs: []int{3}},
		},
	}
}

func newRT(t testing.TB, cfg Config) (*Runtime, *store.ObjectStore) {
	t.Helper()
	os := store.New()
	rt := New(os, cfg)
	t.Cleanup(rt.Close)
	return rt, os
}

func register(t testing.TB, rt *Runtime, os *store.ObjectStore, pipe *pipeline.Pipeline, opts oven.Options) *plan.Plan {
	t.Helper()
	pl, err := oven.Compile(pipe, os, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Register(pl); err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestRequestResponseEngine(t *testing.T) {
	rt, os := newRT(t, Config{Executors: 2})
	register(t, rt, os, saPipeline(t, "sa", 0), oven.DefaultOptions())
	in, out := vector.New(0), vector.New(0)
	in.SetText("a nice product")
	if err := rt.PredictRequest(Request{Model: "sa", In: in, Out: out}); err != nil {
		t.Fatal(err)
	}
	if out.Dense[0] <= 0.5 {
		t.Fatalf("score %v", out.Dense[0])
	}
	if err := rt.PredictRequest(Request{Model: "missing", In: in, Out: out}); err == nil {
		t.Fatal("unknown plan must error")
	}
}

func TestBatchEngine(t *testing.T) {
	rt, os := newRT(t, Config{Executors: 4})
	register(t, rt, os, saPipeline(t, "sa", 0), oven.DefaultOptions())
	const n = 64
	ins := make([]*vector.Vector, n)
	outs := make([]*vector.Vector, n)
	for i := range ins {
		ins[i] = vector.New(0)
		ins[i].SetText("nice product")
		outs[i] = vector.New(0)
	}
	if err := rt.PredictRequestBatch(BatchRequest{Model: "sa", Ins: ins, Outs: outs}); err != nil {
		t.Fatal(err)
	}
	for i := range outs {
		if outs[i].Dense[0] != outs[0].Dense[0] {
			t.Fatalf("batch result %d differs", i)
		}
	}
	if err := rt.PredictRequestBatch(BatchRequest{Model: "sa", Ins: ins, Outs: outs[:1]}); err == nil {
		t.Fatal("mismatched batch must error")
	}
	if err := rt.PredictRequestBatch(BatchRequest{Model: "nope", Ins: ins, Outs: outs}); err == nil {
		t.Fatal("unknown plan must error")
	}
}

func TestEnginesAgree(t *testing.T) {
	rt, os := newRT(t, Config{Executors: 2})
	register(t, rt, os, saPipeline(t, "sa", 0), oven.DefaultOptions())
	in, a, b := vector.New(0), vector.New(0), vector.New(0)
	in.SetText("nice bad product refund")
	if err := rt.PredictRequest(Request{Model: "sa", In: in, Out: a}); err != nil {
		t.Fatal(err)
	}
	j, err := rt.SubmitRequestBatch(BatchRequest{Model: "sa", Ins: []*vector.Vector{in}, Outs: []*vector.Vector{b}})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	if a.Dense[0] != b.Dense[0] {
		t.Fatalf("request-response %v batch %v", a.Dense[0], b.Dense[0])
	}
}

// TestCatalogSharing: the plan store is the §4.2.1 catalog. Plans
// compiled through it bind the same *plan.Stage wherever their stages
// are identical, and only there.
func TestCatalogSharing(t *testing.T) {
	rt, os := newRT(t, Config{Executors: 1})
	opts := oven.DefaultOptions()
	opts.Plans = rt.PlanStore()
	a := register(t, rt, os, saPipeline(t, "a", 0), opts)
	b := register(t, rt, os, saPipeline(t, "b", 0), opts)
	for i := range a.Stages {
		if a.Stages[i] != b.Stages[i] {
			t.Fatalf("identical plans must bind the same stage %d", i)
		}
	}
	if st := rt.PlanStoreStats(); st.Unique != 2 || st.Hits != 2 {
		t.Fatalf("identical plans must share both stages: %+v", st)
	}
	// Same dicts, different word-block weights: the head stage (identical
	// char block) still shares; the tail stage must not.
	c := register(t, rt, os, saPipeline(t, "c", 1), opts)
	if c.Stages[0] != a.Stages[0] {
		t.Fatal("head stage must be shared")
	}
	if c.Stages[1] == a.Stages[1] || c.Stages[1].Kern == a.Stages[1].Kern {
		t.Fatal("tail stages with different weights must not be shared")
	}
	if st := rt.PlanStoreStats(); st.Unique != 3 || st.Refs != 6 {
		t.Fatalf("plan store after the near-twin: %+v", st)
	}
}

// TestRegisterKeepsEachPlansKernels: registration links a plan and never
// rebinds its stages, even when another plan's stage carries the same
// 64-bit ID. (The runtime once rebound stages by ID, so a plan whose IDs
// collided with an earlier one answered with the earlier weights.)
func TestRegisterKeepsEachPlansKernels(t *testing.T) {
	rt, os := newRT(t, Config{Executors: 1})
	a, err := oven.Compile(saPipeline(t, "a", 0), os, oven.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := oven.Compile(saPipeline(t, "b", 5), os, oven.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range b.Stages {
		b.Stages[i].ID = a.Stages[i].ID
	}
	tailB := b.Stages[len(b.Stages)-1].Kern
	for _, pl := range []*plan.Plan{a, b} {
		if _, err := rt.Register(pl); err != nil {
			t.Fatal(err)
		}
	}
	if b.Stages[len(b.Stages)-1].Kern != tailB {
		t.Fatal("registration rebound b's tail kernel")
	}
	in, outA, outB := vector.New(0), vector.New(0), vector.New(0)
	in.SetText("a nice product")
	if err := rt.PredictRequest(Request{Model: "a", In: in, Out: outA}); err != nil {
		t.Fatal(err)
	}
	if err := rt.PredictRequest(Request{Model: "b", In: in, Out: outB}); err != nil {
		t.Fatal(err)
	}
	if outA.Dense[0] == outB.Dense[0] {
		t.Fatalf("b answered with a's weights: %v", outB.Dense[0])
	}
}

func TestDuplicateRegistration(t *testing.T) {
	rt, os := newRT(t, Config{Executors: 1})
	register(t, rt, os, saPipeline(t, "sa", 0), oven.DefaultOptions())
	pl, err := oven.Compile(saPipeline(t, "sa", 0), os, oven.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Register(pl); err == nil {
		t.Fatal("duplicate name must error")
	}
	rt.Unregister("sa")
	if _, err := rt.Register(pl); err != nil {
		t.Fatal("after unregister, registration must work")
	}
}

func TestMemBytesWithAndWithoutStore(t *testing.T) {
	// With an object store, two same-dict plans cost ~one dictionary set.
	rtShared, os := newRT(t, Config{Executors: 1})
	register(t, rtShared, os, saPipeline(t, "a", 0), oven.DefaultOptions())
	one := rtShared.MemBytes()
	register(t, rtShared, os, saPipeline(t, "b", 1), oven.DefaultOptions())
	two := rtShared.MemBytes()
	if two > one+one/2 {
		t.Fatalf("shared store should dedup dictionaries: %d -> %d", one, two)
	}
	// Without a store, memory doubles.
	rtRaw := New(nil, Config{Executors: 1})
	defer rtRaw.Close()
	plA, err := oven.Compile(saPipeline(t, "a", 0), nil, oven.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rtRaw.Register(plA); err != nil {
		t.Fatal(err)
	}
	oneRaw := rtRaw.MemBytes()
	plB, err := oven.Compile(saPipeline(t, "b", 1), nil, oven.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rtRaw.Register(plB); err != nil {
		t.Fatal(err)
	}
	twoRaw := rtRaw.MemBytes()
	if twoRaw < oneRaw*3/2 {
		t.Fatalf("no store should duplicate dictionaries: %d -> %d", oneRaw, twoRaw)
	}
}

func TestReservationThroughRuntime(t *testing.T) {
	rt, os := newRT(t, Config{Executors: 1})
	register(t, rt, os, saPipeline(t, "vip", 0), oven.DefaultOptions())
	if err := rt.Reserve("nope", 1); err == nil {
		t.Fatal("reserving unknown plan must error")
	}
	if err := rt.Reserve("vip", 2); err != nil {
		t.Fatal(err)
	}
	in, out := vector.New(0), vector.New(0)
	in.SetText("nice")
	j, err := rt.SubmitRequestBatch(BatchRequest{Model: "vip", Ins: []*vector.Vector{in}, Outs: []*vector.Vector{out}})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestMaterializationAcrossPlansViaRuntime(t *testing.T) {
	osStore := store.New()
	rt := New(osStore, Config{Executors: 2, MatCacheBytes: 8 << 20})
	defer rt.Close()
	for i := 0; i < 3; i++ {
		pl, err := oven.Compile(saPipeline(t, fmt.Sprintf("sa-%d", i), float32(i)),
			osStore, oven.Options{Materialization: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Register(pl); err != nil {
			t.Fatal(err)
		}
	}
	in := vector.New(0)
	in.SetText("the same nice input text")
	for i := 0; i < 3; i++ {
		out := vector.New(0)
		if err := rt.PredictRequest(Request{Model: fmt.Sprintf("sa-%d", i), In: in, Out: out}); err != nil {
			t.Fatal(err)
		}
	}
	cs := rt.MatCache().Stats()
	if cs.Hits < 2 {
		t.Fatalf("plans 2 and 3 should reuse plan 1's featurization: %+v", cs)
	}
}

func TestConcurrentPredicts(t *testing.T) {
	rt, os := newRT(t, Config{Executors: 4})
	register(t, rt, os, saPipeline(t, "sa", 0), oven.DefaultOptions())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in, out := vector.New(0), vector.New(0)
			for i := 0; i < 200; i++ {
				in.SetText("nice product works")
				if err := rt.PredictRequest(Request{Model: "sa", In: in, Out: out}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestRegisterInvalidPlan(t *testing.T) {
	rt, _ := newRT(t, Config{Executors: 1})
	if _, err := rt.Register(&plan.Plan{Name: "empty"}); err == nil {
		t.Fatal("invalid plan must be rejected")
	}
}

// resident is the part of both stores' Stats() that describes what is
// held right now (the hit, miss and digest counters only ever grow).
func resident(rt *Runtime) [2]any {
	o, p := rt.ObjectStoreStats(), rt.PlanStoreStats()
	o.Hits, o.Misses, p.Hits, p.Misses = 0, 0, 0, 0
	o.Digests, o.RawHits, o.RawMisses = 0, 0, 0
	return [2]any{o, p}
}

// TestUnregisterFreesStoresAndCatalog is the removal contract every
// engine (and lifecycle eviction) relies on: Unregister gives back the
// removed plan's parameters and shared stages, so both stores return to
// their pre-register Stats() once the last sharer of each object leaves
// (shared ones stay for their surviving users) and the plan store ends
// empty.
func TestUnregisterFreesStoresAndCatalog(t *testing.T) {
	rt, os := newRT(t, Config{Executors: 1})
	opts := oven.DefaultOptions()
	opts.Plans = rt.PlanStore()
	empty := resident(rt)
	// a and b share dictionaries (same builder sequence) and therefore
	// their featurizer stages, but carry distinct weights.
	register(t, rt, os, saPipeline(t, "a", 0), opts)
	onlyA := resident(rt)
	stagesA := rt.PlanStore().Stats().Unique
	register(t, rt, os, saPipeline(t, "b", 1), opts)
	if both := resident(rt); both == onlyA {
		t.Fatal("b must add its own weights and scorer stage")
	}

	if err := rt.Unregister("b"); err != nil {
		t.Fatal(err)
	}
	if got := resident(rt); got != onlyA {
		t.Fatalf("unregistering b must return the stores to a's footprint:\n got %+v\nwant %+v", got, onlyA)
	}
	if got := rt.PlanStore().Stats().Unique; got != stagesA {
		t.Fatalf("unregistering b must drop its unique stages: %d != %d", got, stagesA)
	}
	in, out := vector.New(0), vector.New(0)
	in.SetText("nice product")
	if err := rt.PredictRequest(Request{Model: "a", In: in, Out: out}); err != nil {
		t.Fatalf("surviving model must keep serving after its sibling left: %v", err)
	}

	if err := rt.Unregister("a"); err != nil {
		t.Fatal(err)
	}
	if got := resident(rt); got != empty {
		t.Fatalf("unregistering the last sharer must empty both stores:\n got %+v\nwant %+v", got, empty)
	}
	if got := rt.PlanStore().Stats().Unique; got != 0 {
		t.Fatalf("unregistering the last model must empty the plan store: %d stages left", got)
	}
	if err := rt.PredictRequest(Request{Model: "a", In: in, Out: out}); !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("unregistered model must be gone: %v", err)
	}
}

// TestUnregisterOneVersion removes a single version while its sibling
// version keeps serving with its shared parameters intact.
func TestUnregisterOneVersion(t *testing.T) {
	rt, os := newRT(t, Config{Executors: 1})
	register(t, rt, os, saPipeline(t, "m", 0), oven.DefaultOptions())
	register(t, rt, os, saPipeline(t, "m@2", 1), oven.DefaultOptions())
	if err := rt.Unregister("m@2"); err != nil {
		t.Fatal(err)
	}
	in, out := vector.New(0), vector.New(0)
	in.SetText("nice product")
	if err := rt.PredictRequest(Request{Model: "m", In: in, Out: out}); err != nil {
		t.Fatalf("version 1 must survive version 2's removal: %v", err)
	}
	if err := rt.Unregister("m"); err != nil {
		t.Fatal(err)
	}
	if got := os.Stats().Unique; got != 0 {
		t.Fatalf("store must be empty after full removal: %d", got)
	}
}
