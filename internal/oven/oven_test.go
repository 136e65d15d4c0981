package oven

import (
	"bytes"
	"strings"
	"testing"

	"pretzel/internal/ml"
	"pretzel/internal/ops"
	"pretzel/internal/pipeline"
	"pretzel/internal/plan"
	"pretzel/internal/schema"
	"pretzel/internal/store"
	"pretzel/internal/text"
	"pretzel/internal/vector"
	"pretzel/internal/workload"
)

// buildSA constructs the canonical SA pipeline over a tiny corpus. The
// char/word dictionaries are deterministic so two calls produce
// shareable parameters.
func buildSA(t testing.TB, name string, weightSeedBump float32) *pipeline.Pipeline {
	t.Helper()
	corpus := []string{
		"nice product works great wonderful",
		"terrible broken refund bad awful",
		"the quick brown fox jumps over the lazy dog",
		"this item is very nice and works",
	}
	cb := text.NewDictBuilder()
	wb := text.NewDictBuilder()
	for _, doc := range corpus {
		toks := text.Tokenize(doc, nil)
		for _, tok := range toks {
			text.ObserveCharNgrams(cb, []byte(tok), 2, 3)
		}
		text.ObserveWordNgrams(wb, toks, 2, nil)
	}
	cd, wd := cb.Build(0), wb.Build(0)
	weights := make([]float32, cd.Size()+wd.Size())
	for i := range weights {
		weights[i] = 0.001 * float32(i%7)
	}
	if ix := wd.Lookup("nice"); ix >= 0 {
		weights[cd.Size()+int(ix)] = 2 + weightSeedBump
	}
	if ix := wd.Lookup("bad"); ix >= 0 {
		weights[cd.Size()+int(ix)] = -2 - weightSeedBump
	}
	return &pipeline.Pipeline{
		Name:        name,
		InputSchema: schema.Text("Text"),
		Stats:       pipeline.Stats{MaxVectorSize: cd.Size() + wd.Size(), AvgTokens: 8, SparseOutput: true},
		Nodes: []pipeline.Node{
			{Op: &ops.Tokenizer{}, Inputs: []int{pipeline.InputID}},
			{Op: &ops.CharNgram{MinN: 2, MaxN: 3, Dict: cd}, Inputs: []int{0}},
			{Op: &ops.WordNgram{MaxN: 2, Dict: wd}, Inputs: []int{0}},
			{Op: &ops.Concat{Dims: []int{cd.Size(), wd.Size()}}, Inputs: []int{1, 2}},
			{Op: &ops.LinearPredictor{Model: &ml.LinearModel{Kind: ml.LogisticRegression, Weights: weights, Bias: 0.1}}, Inputs: []int{3}},
		},
	}
}

// buildAC constructs a small attendee-count-style ensemble pipeline:
// ParseFloats -> Imputer -> Scaler -> {PCA, KMeans} -> Concat -> Forest.
func buildAC(t testing.TB, name string) *pipeline.Pipeline {
	t.Helper()
	dim := 8
	xs := make([][]float32, 60)
	ys := make([]float32, 60)
	for i := range xs {
		x := make([]float32, dim)
		for j := range x {
			x[j] = float32((i*7+j*3)%10) / 10
		}
		xs[i] = x
		ys[i] = x[0]*3 + x[1]
	}
	pca, err := ml.TrainPCA(xs, ml.PCAOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	km, err := ml.TrainKMeans(xs, ml.KMeansOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Final forest consumes concat(pca, kmeans) = 5 dims.
	fx := make([][]float32, len(xs))
	for i, x := range xs {
		f := make([]float32, 5)
		pca.Project(x, f[:2])
		km.Distances(x, f[2:5])
		fx[i] = f
	}
	forest, err := ml.TrainForest(fx, ys, ml.ForestOptions{NumTrees: 3, Tree: ml.TreeOptions{MaxDepth: 4}})
	if err != nil {
		t.Fatal(err)
	}
	mean := make([]float32, dim)
	std := make([]float32, dim)
	for j := range std {
		std[j] = 1
	}
	return &pipeline.Pipeline{
		Name:        name,
		InputSchema: schema.Text("Line"),
		Stats:       pipeline.Stats{MaxVectorSize: dim},
		Nodes: []pipeline.Node{
			{Op: &ops.ParseFloats{Sep: ',', Dim: dim}, Inputs: []int{pipeline.InputID}},
			{Op: &ops.Imputer{Fill: &ops.Floats{V: mean}}, Inputs: []int{0}},
			{Op: &ops.MeanVarScaler{Mean: &ops.Floats{V: mean}, Std: &ops.Floats{V: std}}, Inputs: []int{1}},
			{Op: &ops.PCATransform{Model: pca}, Inputs: []int{2}},
			{Op: &ops.KMeansTransform{Model: km}, Inputs: []int{2}},
			{Op: &ops.Concat{Dims: []int{2, 3}}, Inputs: []int{3, 4}},
			{Op: &ops.ForestPredictor{Model: forest}, Inputs: []int{5}},
		},
	}
}

func newExec() *plan.Exec {
	return &plan.Exec{Pool: vector.NewPool()}
}

func TestCompileSAPushdownTwoStages(t *testing.T) {
	p := buildSA(t, "sa", 0)
	pl, err := Compile(p, store.New(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Stages) != 2 {
		for i, s := range pl.Stages {
			var kinds []string
			for _, op := range s.Ops {
				kinds = append(kinds, op.Info().Kind)
			}
			t.Logf("stage %d: %s kern=%s inputs=%v", i, strings.Join(kinds, "+"), s.Kern.Kind(), s.Inputs)
		}
		t.Fatalf("SA plan must compile to 2 stages (got %d)", len(pl.Stages))
	}
	if pl.Stages[0].Kern.Kind() != "sa-head" || pl.Stages[1].Kern.Kind() != "sa-tail" {
		t.Fatalf("kernels: %s, %s", pl.Stages[0].Kern.Kind(), pl.Stages[1].Kern.Kind())
	}
}

func TestCompiledSAMatchesReference(t *testing.T) {
	p := buildSA(t, "sa", 0)
	ref := buildSA(t, "sa-ref", 0)
	pl, err := Compile(p, store.New(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ec := newExec()
	in, got, want := vector.New(0), vector.New(0), vector.New(0)
	inputs := []string{
		"a nice product",
		"bad quality, bad support",
		"the quick brown fox",
		"",
		"nice nice nice bad",
		"completely unrelated words here",
	}
	for _, s := range inputs {
		in.SetText(s)
		if err := plan.RunPlan(pl, ec, in, got); err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if err := ref.Run(in, want, nil); err != nil {
			t.Fatal(err)
		}
		if d := got.Dense[0] - want.Dense[0]; d > 1e-5 || d < -1e-5 {
			t.Fatalf("%q: plan %v reference %v", s, got.Dense[0], want.Dense[0])
		}
	}
}

func TestCompiledSAMaterializableMatchesReference(t *testing.T) {
	p := buildSA(t, "sa", 0)
	ref := buildSA(t, "sa-ref", 0)
	pl, err := Compile(p, store.New(), Options{Materialization: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Stages) != 2 {
		t.Fatalf("materializable SA plan must have 2 stages, got %d", len(pl.Stages))
	}
	if pl.Stages[0].Kern.Kind() != "sa-featurize" || !pl.Stages[0].Materializable {
		t.Fatalf("stage0: %s materializable=%v", pl.Stages[0].Kern.Kind(), pl.Stages[0].Materializable)
	}
	if pl.Stages[1].Kern.Kind() != "linear-score" {
		t.Fatalf("stage1: %s", pl.Stages[1].Kern.Kind())
	}
	ec := newExec()
	in, got, want := vector.New(0), vector.New(0), vector.New(0)
	for _, s := range []string{"a nice product", "bad bad bad", "so so"} {
		in.SetText(s)
		if err := plan.RunPlan(pl, ec, in, got); err != nil {
			t.Fatal(err)
		}
		if err := ref.Run(in, want, nil); err != nil {
			t.Fatal(err)
		}
		if d := got.Dense[0] - want.Dense[0]; d > 1e-5 || d < -1e-5 {
			t.Fatalf("%q: plan %v reference %v", s, got.Dense[0], want.Dense[0])
		}
	}
}

func TestMaterializationCacheHits(t *testing.T) {
	objStore := store.New()
	cache := store.NewMatCache(8 << 20)
	// Two pipelines sharing dictionaries but with different weights.
	plA, err := Compile(buildSA(t, "a", 0), objStore, Options{Materialization: true})
	if err != nil {
		t.Fatal(err)
	}
	plB, err := Compile(buildSA(t, "b", 1), objStore, Options{Materialization: true})
	if err != nil {
		t.Fatal(err)
	}
	if plA.Stages[0].ID != plB.Stages[0].ID {
		t.Fatal("shared featurization stages must have equal IDs")
	}
	if plA.Stages[1].ID == plB.Stages[1].ID {
		t.Fatal("scorer stages with different weights must differ")
	}
	ec := &plan.Exec{Pool: vector.NewPool(), Cache: cache}
	in, out := vector.New(0), vector.New(0)
	in.SetText("is this a nice product then") // "nice" only: weight bumps must not cancel
	if err := plan.RunPlan(plA, ec, in, out); err != nil {
		t.Fatal(err)
	}
	a := out.Dense[0]
	st0 := cache.Stats()
	if st0.Entries != 1 {
		t.Fatalf("featurization result not cached: %+v", st0)
	}
	if err := plan.RunPlan(plB, ec, in, out); err != nil {
		t.Fatal(err)
	}
	b := out.Dense[0]
	st1 := cache.Stats()
	if st1.Hits != st0.Hits+1 {
		t.Fatalf("plan B should hit plan A's cached featurization: %+v", st1)
	}
	if a == b {
		t.Fatal("different weights must give different predictions")
	}
	// Cached result must equal uncached.
	ec2 := &plan.Exec{Pool: vector.NewPool()}
	if err := plan.RunPlan(plB, ec2, in, out); err != nil {
		t.Fatal(err)
	}
	if out.Dense[0] != b {
		t.Fatalf("cached vs uncached mismatch: %v vs %v", out.Dense[0], b)
	}
}

func TestObjectStoreSharingAcrossPlans(t *testing.T) {
	objStore := store.New()
	if _, err := Compile(buildSA(t, "a", 0), objStore, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	before := objStore.Stats()
	if _, err := Compile(buildSA(t, "b", 1), objStore, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	after := objStore.Stats()
	// The two dictionaries are shared; the linear model differs.
	if after.Hits < before.Hits+2 {
		t.Fatalf("expected dictionary hits, stats %+v -> %+v", before, after)
	}
	if after.Unique != before.Unique+1 {
		t.Fatalf("only the linear model should be new: %+v -> %+v", before, after)
	}
}

func TestCompileACGenericStages(t *testing.T) {
	p := buildAC(t, "ac")
	ref := buildAC(t, "ac-ref")
	pl, err := Compile(p, store.New(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Expected shape: fused parse stage, pca, kmeans, concat, forest.
	if len(pl.Stages) != 5 {
		for i, s := range pl.Stages {
			var kinds []string
			for _, op := range s.Ops {
				kinds = append(kinds, op.Info().Kind)
			}
			t.Logf("stage %d: %s inputs=%v", i, strings.Join(kinds, "+"), s.Inputs)
		}
		t.Fatalf("AC plan stages = %d, want 5", len(pl.Stages))
	}
	if len(pl.Stages[0].Ops) != 3 {
		t.Fatalf("first stage should fuse 3 memory-bound ops, has %d", len(pl.Stages[0].Ops))
	}
	ec := newExec()
	in, got, want := vector.New(0), vector.New(0), vector.New(0)
	in.SetText("0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8")
	if err := plan.RunPlan(pl, ec, in, got); err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(in, want, nil); err != nil {
		t.Fatal(err)
	}
	if d := got.Dense[0] - want.Dense[0]; d > 1e-4 || d < -1e-4 {
		t.Fatalf("plan %v reference %v", got.Dense[0], want.Dense[0])
	}
}

func TestCompileRejectsInvalid(t *testing.T) {
	// No predictor: output is tokens.
	p := &pipeline.Pipeline{
		Name:        "bad",
		InputSchema: schema.Text("T"),
		Nodes:       []pipeline.Node{{Op: &ops.Tokenizer{}, Inputs: []int{pipeline.InputID}}},
	}
	if _, err := Compile(p, store.New(), DefaultOptions()); err == nil {
		t.Fatal("tokens output must be rejected by graph validation")
	}
	// Unreachable node.
	p2 := buildSA(t, "sa", 0)
	p2.Nodes = append(p2.Nodes[:4:4], pipeline.Node{Op: &ops.Tokenizer{}, Inputs: []int{pipeline.InputID}},
		p2.Nodes[4])
	// Fix input indices: predictor still reads node 3.
	p2.Nodes[5].Inputs = []int{3}
	if _, err := Compile(p2, store.New(), DefaultOptions()); err == nil {
		t.Fatal("unreachable node must be rejected")
	}
}

func TestCompileNilStore(t *testing.T) {
	// Compilation must work without an object store (single-plan use).
	pl, err := Compile(buildSA(t, "sa", 0), nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Stages) != 2 {
		t.Fatalf("stages=%d", len(pl.Stages))
	}
}

func TestSharedKernelInstancesViaIDs(t *testing.T) {
	// Two identical pipelines (same dicts, same weights) must produce
	// stages with identical IDs throughout — the runtime catalog will then
	// share physical stages between them.
	objStore := store.New()
	a, err := Compile(buildSA(t, "a", 0), objStore, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(buildSA(t, "b", 0), objStore, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Stages {
		if a.Stages[i].ID != b.Stages[i].ID {
			t.Fatalf("stage %d IDs differ for identical pipelines", i)
		}
	}
}

func TestPlanExecReusesAcc(t *testing.T) {
	// Acc must reset between predictions: running twice gives same result.
	pl, err := Compile(buildSA(t, "sa", 0), store.New(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ec := newExec()
	in, out := vector.New(0), vector.New(0)
	in.SetText("nice bad product")
	if err := plan.RunPlan(pl, ec, in, out); err != nil {
		t.Fatal(err)
	}
	first := out.Dense[0]
	for i := 0; i < 5; i++ {
		if err := plan.RunPlan(pl, ec, in, out); err != nil {
			t.Fatal(err)
		}
		if out.Dense[0] != first {
			t.Fatalf("iteration %d: %v != %v (Acc leak?)", i, out.Dense[0], first)
		}
	}
}

// TestWordIndexChargedAtCompile: Compile builds each word dictionary's
// trie of term parts, so the Object Store's MemBytes (what lifecycle charges a
// load) already holds it, and 1,000 predicts leave MemBytes unchanged.
func TestWordIndexChargedAtCompile(t *testing.T) {
	set, err := workload.BuildSA(workload.SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{DefaultOptions(), {Materialization: true}} {
		s := store.New()
		var plans []*plan.Plan
		for _, p := range set.Pipelines {
			pl, err := Compile(p, s, opts)
			if err != nil {
				t.Fatal(err)
			}
			plans = append(plans, pl)
			var word *text.Dict
			switch k := pl.Stages[0].Kern.(type) {
			case *plan.FeaturizeKernel:
				word = k.Word.Dict
			default:
				word = pl.Stages[1].Kern.(*plan.SATailKernel).Word.Dict
			}
			var buf bytes.Buffer
			if _, err := word.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			bare, err := text.ReadDict(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if word.MemBytes() <= bare.MemBytes() {
				t.Fatalf("%s: word dictionary holds %d bytes after Compile, %d without an index", p.Name, word.MemBytes(), bare.MemBytes())
			}
		}
		before := s.MemBytes()
		ec := newExec()
		in, out := vector.New(0), vector.New(0)
		for i := 0; i < 1000; i++ {
			in.SetText(set.TestInputs[i%len(set.TestInputs)])
			if err := plan.RunPlan(plans[i%len(plans)], ec, in, out); err != nil {
				t.Fatal(err)
			}
		}
		if after := s.MemBytes(); after != before {
			t.Fatalf("materialization %v: store MemBytes %d after 1,000 predicts, %d after Compile", opts.Materialization, after, before)
		}
	}
}
