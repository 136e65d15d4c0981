package flour

import (
	"testing"

	"pretzel/internal/ml"
	"pretzel/internal/oven"
	"pretzel/internal/pipeline"
	"pretzel/internal/plan"
	"pretzel/internal/store"
	"pretzel/internal/text"
	"pretzel/internal/vector"
)

func dicts(t testing.TB) (*text.Dict, *text.Dict) {
	t.Helper()
	corpus := []string{"nice product works great", "terrible broken refund bad"}
	cb, wb := text.NewDictBuilder(), text.NewDictBuilder()
	for _, doc := range corpus {
		toks := text.Tokenize(doc, nil)
		for _, tok := range toks {
			text.ObserveCharNgrams(cb, []byte(tok), 2, 3)
		}
		text.ObserveWordNgrams(wb, toks, 2, nil)
	}
	return cb.Build(0), wb.Build(0)
}

func saTransform(t testing.TB, fc *Context) *Transform {
	t.Helper()
	cd, wd := dicts(t)
	weights := make([]float32, cd.Size()+wd.Size())
	if ix := wd.Lookup("nice"); ix >= 0 {
		weights[cd.Size()+int(ix)] = 2
	}
	model := &ml.LinearModel{Kind: ml.LogisticRegression, Weights: weights}
	tok := fc.Text().Tokenize()
	cn := tok.CharNgram(cd, 2, 3)
	wn := tok.WordNgram(wd, 2)
	return cn.Concat(wn).ClassifierBinaryLinear(model)
}

func TestListing1Shape(t *testing.T) {
	fc := NewContext(store.New())
	prg := saTransform(t, fc)
	pl, err := prg.Plan("sa", oven.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Pushdown yields head+tail stages.
	if len(pl.Stages) != 2 {
		t.Fatalf("stages=%d, want 2", len(pl.Stages))
	}
	ec := &plan.Exec{Pool: vector.NewPool()}
	in, out := vector.New(0), vector.New(0)
	in.SetText("a nice product")
	if err := plan.RunPlan(pl, ec, in, out); err != nil {
		t.Fatal(err)
	}
	if out.Dense[0] <= 0.5 {
		t.Fatalf("positive review scored %v", out.Dense[0])
	}
}

func TestPipelineSnapshotMatchesPlan(t *testing.T) {
	fc := NewContext(store.New())
	prg := saTransform(t, fc)
	pipe, err := prg.Pipeline("sa")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := prg.Plan("sa", oven.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	in, a, b := vector.New(0), vector.New(0), vector.New(0)
	in.SetText("bad refund nice")
	if err := pipe.Run(in, a, nil); err != nil {
		t.Fatal(err)
	}
	ec := &plan.Exec{Pool: vector.NewPool()}
	if err := plan.RunPlan(pl, ec, in, b); err != nil {
		t.Fatal(err)
	}
	if d := a.Dense[0] - b.Dense[0]; d > 1e-5 || d < -1e-5 {
		t.Fatalf("pipeline %v plan %v", a.Dense[0], b.Dense[0])
	}
}

func TestSchemaMismatchDeferred(t *testing.T) {
	fc := NewContext(nil)
	// CharNgram over raw text (not tokens) is a schema error.
	cd, _ := dicts(t)
	tr := fc.Text().CharNgram(cd, 2, 3)
	if tr.prg.err == nil {
		t.Fatal("kind mismatch must be caught at build time")
	}
	// The chain stays fluent: further calls do not panic.
	tr2 := tr.Tokenize().CharNgram(cd, 2, 3)
	if _, err := tr2.Pipeline("x"); err == nil || err != tr.prg.err {
		t.Fatalf("the first error must persist, got %v", err)
	}
}

func TestPlanOnNonFinalTransform(t *testing.T) {
	fc := NewContext(nil)
	cd, wd := dicts(t)
	tok := fc.Text().Tokenize()
	cn := tok.CharNgram(cd, 2, 3)
	_ = tok.WordNgram(wd, 2) // extends the program past cn
	if _, err := cn.Pipeline("x"); err == nil {
		t.Fatal("Plan on a non-final transform must error")
	}
}

func TestEmptyProgram(t *testing.T) {
	fc := NewContext(nil)
	if _, err := fc.Text().Pipeline("x"); err == nil {
		t.Fatal("empty program must error")
	}
}

func TestConcatAcrossPrograms(t *testing.T) {
	fc := NewContext(nil)
	cd, wd := dicts(t)
	a := fc.Text().Tokenize().CharNgram(cd, 2, 3)
	b := fc.Text().Tokenize().WordNgram(wd, 2)
	c := a.Concat(b)
	if _, err := c.Pipeline("x"); err == nil {
		t.Fatal("concat across programs must error")
	}
}

func TestFloatsProgram(t *testing.T) {
	fc := NewContext(store.New())
	dim := 4
	xs := [][]float32{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}, {1, 1, 0, 0}, {0, 0, 1, 1}}
	km, err := ml.TrainKMeans(xs, ml.KMeansOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	pca, err := ml.TrainPCA(xs, ml.PCAOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	fx := make([][]float32, len(xs))
	ys := make([]float32, len(xs))
	for i, x := range xs {
		f := make([]float32, 4)
		pca.Project(x, f[:2])
		km.Distances(x, f[2:4])
		fx[i] = f
		ys[i] = x[0] * 2
	}
	forest, err := ml.TrainForest(fx, ys, ml.ForestOptions{NumTrees: 2, Tree: ml.TreeOptions{MaxDepth: 3, MinLeaf: 1}})
	if err != nil {
		t.Fatal(err)
	}
	base := fc.Floats(',', dim)
	p := base.PCA(pca)
	k := base.KMeans(km)
	prg := p.Concat(k).ForestRegressor(forest)
	pl, err := prg.Plan("ac", oven.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ec := &plan.Exec{Pool: vector.NewPool()}
	in, out := vector.New(0), vector.New(0)
	in.SetText("1,0,0,0")
	if err := plan.RunPlan(pl, ec, in, out); err != nil {
		t.Fatal(err)
	}
	if len(out.Dense) != 1 {
		t.Fatal("scalar output expected")
	}
}

func TestFromPipeline(t *testing.T) {
	fc := NewContext(store.New())
	prg := saTransform(t, fc)
	pipe, err := prg.Pipeline("orig")
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip through the model file, then re-import via Flour.
	raw, err := pipe.ExportBytes()
	if err != nil {
		t.Fatal(err)
	}
	imported, err := pipeline.ImportBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := fc.FromPipeline(imported)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := tr.Plan("sa2", oven.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Stages) != 2 {
		t.Fatalf("stages=%d", len(pl.Stages))
	}
}

func TestWithStats(t *testing.T) {
	fc := NewContext(nil)
	cd, wd := dicts(t)
	weights := make([]float32, cd.Size()+wd.Size())
	model := &ml.LinearModel{Kind: ml.LogisticRegression, Weights: weights}
	tok := fc.Text().Tokenize()
	prg := tok.CharNgram(cd, 2, 3).Concat(tok.WordNgram(wd, 2)).
		ClassifierBinaryLinear(model).
		WithStats(pipeline.Stats{AvgTokens: 12, SparseOutput: true})
	pipe, err := prg.Pipeline("sa")
	if err != nil {
		t.Fatal(err)
	}
	if pipe.Stats.AvgTokens != 12 || !pipe.Stats.SparseOutput {
		t.Fatalf("stats lost: %+v", pipe.Stats)
	}
	if pipe.Stats.MaxVectorSize < cd.Size()+wd.Size() {
		t.Fatalf("MaxVectorSize not derived: %+v", pipe.Stats)
	}
}
