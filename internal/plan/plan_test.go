package plan

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"pretzel/internal/ml"
	"pretzel/internal/ops"
	"pretzel/internal/store"
	"pretzel/internal/text"
	"pretzel/internal/vector"
)

func saDicts(t testing.TB) (*text.Dict, *text.Dict) {
	t.Helper()
	cb, wb := text.NewDictBuilder(), text.NewDictBuilder()
	for _, doc := range []string{"nice product", "bad refund"} {
		toks := text.Tokenize(doc, nil)
		for _, tok := range toks {
			text.ObserveCharNgrams(cb, []byte(tok), 2, 3)
		}
		text.ObserveWordNgrams(wb, toks, 1, nil)
	}
	return cb.Build(0), wb.Build(0)
}

func TestHashInputDiscriminates(t *testing.T) {
	a, b := vector.New(0), vector.New(0)
	a.SetText("hello")
	b.SetText("hello")
	if HashInput(a) != HashInput(b) {
		t.Fatal("equal text must hash equal")
	}
	b.SetText("world")
	if HashInput(a) == HashInput(b) {
		t.Fatal("different text must hash differently")
	}
	d1, d2 := vector.New(0), vector.New(0)
	d1.SetDense([]float32{1, 2})
	d2.SetDense([]float32{1, 3})
	if HashInput(d1) == HashInput(d2) {
		t.Fatal("different dense must differ")
	}
	s1, s2 := vector.New(0), vector.New(0)
	s1.UseSparse(10)
	s1.AppendSparse(1, 1)
	s2.UseSparse(10)
	s2.AppendSparse(2, 1)
	if HashInput(s1) == HashInput(s2) {
		t.Fatal("different sparse must differ")
	}
	tk1, tk2 := vector.New(0), vector.New(0)
	tk1.AppendTokenBytes([]byte("ab"))
	tk1.AppendTokenBytes([]byte("c"))
	tk2.AppendTokenBytes([]byte("a"))
	tk2.AppendTokenBytes([]byte("bc"))
	if HashInput(tk1) == HashInput(tk2) {
		t.Fatal("token boundary must matter")
	}
}

func TestSAHeadTailEndToEnd(t *testing.T) {
	cd, wd := saDicts(t)
	wts := make([]float32, cd.Size()+wd.Size())
	if ix := wd.Lookup("nice"); ix >= 0 {
		wts[cd.Size()+int(ix)] = 4
	}
	head := &SAHeadKernel{
		Char:     text.CharNgramConfig{MinN: 2, MaxN: 3, Dict: cd},
		Weights:  wts[:cd.Size()],
		Tokenize: true,
	}
	tail := &SATailKernel{
		Word:    text.WordNgramConfig{MaxN: 1, Dict: wd},
		Weights: wts[cd.Size():],
		Link:    ml.LogisticRegression,
	}
	ec := &Exec{Pool: vector.NewPool()}
	in, toks, out := vector.New(0), vector.New(0), vector.New(0)
	in.SetText("A NICE product")
	if err := head.Run(ec, []*vector.Vector{in}, toks); err != nil {
		t.Fatal(err)
	}
	if toks.NumTokens() != 3 || string(toks.TokenAt(1)) != "nice" {
		t.Fatalf("tokens: %d %q", toks.NumTokens(), toks.TokenAt(1))
	}
	if err := tail.Run(ec, []*vector.Vector{toks}, out); err != nil {
		t.Fatal(err)
	}
	if out.Dense[0] <= 0.5 {
		t.Fatalf("score %v", out.Dense[0])
	}
	// Wrong input kinds error.
	if err := head.Run(ec, []*vector.Vector{toks}, out); err == nil {
		t.Fatal("head with tokens input while Tokenize=true must error")
	}
	if err := tail.Run(ec, []*vector.Vector{in}, out); err == nil {
		t.Fatal("tail (Tokenize=false) with text input must error")
	}
}

func TestSAHeadPassThroughVariant(t *testing.T) {
	cd, _ := saDicts(t)
	head := &SAHeadKernel{
		Char:    text.CharNgramConfig{MinN: 2, MaxN: 3, Dict: cd},
		Weights: make([]float32, cd.Size()),
	}
	ec := &Exec{Pool: vector.NewPool()}
	toks, out := vector.New(0), vector.New(0)
	toks.AppendTokenBytes([]byte("nice"))
	if err := head.Run(ec, []*vector.Vector{toks}, out); err != nil {
		t.Fatal(err)
	}
	if out.NumTokens() != 1 || string(out.TokenAt(0)) != "nice" {
		t.Fatal("pass-through tokens lost")
	}
}

func TestSATailTokenizeVariant(t *testing.T) {
	_, wd := saDicts(t)
	wts := make([]float32, wd.Size())
	if ix := wd.Lookup("nice"); ix >= 0 {
		wts[ix] = 1
	}
	tail := &SATailKernel{
		Word:     text.WordNgramConfig{MaxN: 1, Dict: wd},
		Weights:  wts,
		Link:     ml.LinearRegression,
		Tokenize: true,
	}
	ec := &Exec{Pool: vector.NewPool()}
	in, out := vector.New(0), vector.New(0)
	in.SetText("nice nice")
	if err := tail.Run(ec, []*vector.Vector{in}, out); err != nil {
		t.Fatal(err)
	}
	if out.Dense[0] != 2 {
		t.Fatalf("score %v, want 2", out.Dense[0])
	}
}

func TestFeaturizeKernelMatchesOps(t *testing.T) {
	cd, wd := saDicts(t)
	fk := &FeaturizeKernel{
		Char:    text.CharNgramConfig{MinN: 2, MaxN: 3, Dict: cd},
		Word:    text.WordNgramConfig{MaxN: 1, Dict: wd},
		CharDim: cd.Size(),
	}
	ec := &Exec{Pool: vector.NewPool()}
	in, got := vector.New(0), vector.New(0)
	in.SetText("nice bad product")
	if err := fk.Run(ec, []*vector.Vector{in}, got); err != nil {
		t.Fatal(err)
	}
	// Reference through the logical operators.
	tokOp := &ops.Tokenizer{}
	charOp := &ops.CharNgram{MinN: 2, MaxN: 3, Dict: cd}
	wordOp := &ops.WordNgram{MaxN: 1, Dict: wd}
	concat := &ops.Concat{Dims: []int{cd.Size(), wd.Size()}}
	toks, cv, wv, want := vector.New(0), vector.New(0), vector.New(0), vector.New(0)
	if err := tokOp.Transform([]*vector.Vector{in}, toks); err != nil {
		t.Fatal(err)
	}
	if err := charOp.Transform([]*vector.Vector{toks}, cv); err != nil {
		t.Fatal(err)
	}
	if err := wordOp.Transform([]*vector.Vector{toks}, wv); err != nil {
		t.Fatal(err)
	}
	if err := concat.Transform([]*vector.Vector{cv, wv}, want); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("featurize kernel disagrees with operators:\n got %v %v\nwant %v %v", got.Idx, got.Val, want.Idx, want.Val)
	}
}

func TestGenericKernelChain(t *testing.T) {
	// The AC head: parse, fill NaN, standardize.
	k := &GenericKernel{Fused: []ops.Op{
		&ops.ParseFloats{Sep: ',', Dim: 3},
		&ops.Imputer{Fill: &ops.Floats{V: []float32{9, 6, 9}}},
		&ops.MeanVarScaler{Mean: &ops.Floats{V: []float32{1, 2, 0.5}}, Std: &ops.Floats{V: []float32{2, 0, 0.5}}},
	}}
	ec := &Exec{Pool: vector.NewPool()}
	in, out := vector.New(0), vector.New(0)
	in.SetText("3,nan,1.5")
	if err := k.Run(ec, []*vector.Vector{in}, out); err != nil {
		t.Fatal(err)
	}
	// impute -> (3,6,1.5), scale -> ((3-1)/2, (6-2)/1, (1.5-0.5)/0.5)
	if want := []float32{1, 4, 2}; !slices.Equal(out.Dense, want) {
		t.Fatalf("got %v, want %v", out.Dense, want)
	}
	// Error propagation names the op.
	in.SetText("not,numbers,here")
	err := k.Run(ec, []*vector.Vector{in}, out)
	if err == nil || !strings.Contains(err.Error(), "ParseFloats") {
		t.Fatalf("err=%v", err)
	}
}

func TestRunStageMaterialization(t *testing.T) {
	cd, wd := saDicts(t)
	fk := &FeaturizeKernel{
		Char:    text.CharNgramConfig{MinN: 2, MaxN: 3, Dict: cd},
		Word:    text.WordNgramConfig{MaxN: 1, Dict: wd},
		CharDim: cd.Size(),
	}
	st := &Stage{ID: 42, Kern: fk, Materializable: true, Ops: []ops.Op{&ops.Tokenizer{}}}
	cache := store.NewMatCache(1 << 20)
	ec := &Exec{Pool: vector.NewPool(), Cache: cache}
	in, out1, out2 := vector.New(0), vector.New(0), vector.New(0)
	in.SetText("nice product")
	if err := RunStageBatch(st, ec, [][]*vector.Vector{{in}}, []*vector.Vector{out1}, nil); err != nil {
		t.Fatal(err)
	}
	if cache.Stats().Entries != 1 {
		t.Fatal("result not cached")
	}
	if err := RunStageBatch(st, ec, [][]*vector.Vector{{in}}, []*vector.Vector{out2}, nil); err != nil {
		t.Fatal(err)
	}
	if cache.Stats().Hits != 1 {
		t.Fatal("second run must hit")
	}
	if !out1.Equal(out2) {
		t.Fatal("cached result differs")
	}
}

func TestPlanValidate(t *testing.T) {
	empty := &Plan{Name: "e"}
	if err := empty.Validate(); err == nil {
		t.Fatal("empty plan must fail")
	}
	bad := &Plan{Name: "b", Stages: []*Stage{
		{Ops: []ops.Op{&ops.Tokenizer{}}, Inputs: []int{5}},
	}}
	if err := bad.Validate(); err == nil {
		t.Fatal("forward input must fail")
	}
	noops := &Plan{Name: "n", Stages: []*Stage{{Inputs: []int{InputID}}}}
	if err := noops.Validate(); err == nil {
		t.Fatal("empty stage must fail")
	}
}

func TestRunPlanSteadyStateAllocs(t *testing.T) {
	cd, wd := saDicts(t)
	wts := make([]float32, cd.Size()+wd.Size())
	head := &SAHeadKernel{
		Char:     text.CharNgramConfig{MinN: 2, MaxN: 3, Dict: cd},
		Weights:  wts[:cd.Size()],
		Tokenize: true,
	}
	tail := &SATailKernel{
		Word:    text.WordNgramConfig{MaxN: 1, Dict: wd},
		Weights: wts[cd.Size():],
		Link:    ml.LogisticRegression,
	}
	p := &Plan{Name: "sa", Stages: []*Stage{
		{ID: 1, Kern: head, Inputs: []int{InputID}, Ops: []ops.Op{&ops.Tokenizer{}}},
		{ID: 2, Kern: tail, Inputs: []int{0}, OutCap: 1, Ops: []ops.Op{&ops.Tokenizer{}}},
	}}
	ec := &Exec{Pool: vector.NewPool()}
	in, out := vector.New(0), vector.New(0)
	in.SetText("a nice product that works very well indeed")
	// Warm up pools and arenas.
	for i := 0; i < 10; i++ {
		if err := RunPlan(p, ec, in, out); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := RunPlan(p, ec, in, out); err != nil {
			t.Fatal(err)
		}
	})
	// The prediction path must be allocation-free in steady state (§3:
	// "avoid memory allocation on the data path"). Allow a tiny slack for
	// the runtime's map iteration internals.
	if allocs > 1 {
		t.Fatalf("RunPlan allocates %v per prediction", allocs)
	}
}

// TestSATailZeroAlloc: a warm sa-tail Run allocates nothing, on a tokens
// input and tokenizing text itself, with unigram to trigram hits on the
// word index.
func TestSATailZeroAlloc(t *testing.T) {
	docs := []string{"a nice product that works very well", "a bad product that works very badly"}
	b := text.NewDictBuilder()
	for _, doc := range docs {
		text.ObserveWordNgrams(b, text.Tokenize(doc, nil), 3, nil)
	}
	wd := b.Build(0)
	cfg := text.WordNgramConfig{MaxN: 3, Dict: wd}
	wts := make([]float32, wd.Size())
	ec := &Exec{Pool: vector.NewPool()}
	txt, toks, out := vector.New(0), vector.New(0), vector.New(0)
	txt.SetText(docs[0] + " and " + docs[1])
	for _, tok := range text.Tokenize(txt.Text, nil) {
		toks.AppendTokenBytes([]byte(tok))
	}
	for _, tc := range []struct {
		tokenize bool
		in       *vector.Vector
	}{{false, toks}, {true, txt}} {
		tail := &SATailKernel{Word: cfg, Weights: wts, Link: ml.LogisticRegression, Tokenize: tc.tokenize}
		run := func() {
			if err := tail.Run(ec, []*vector.Vector{tc.in}, out); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if n := testing.AllocsPerRun(100, run); n != 0 {
			t.Fatalf("sa-tail (Tokenize=%v) allocates %v per Run", tc.tokenize, n)
		}
	}
}

// saMiniPlan builds a two-stage head/tail plan for plan-level tests.
func saMiniPlan(t testing.TB) *Plan {
	t.Helper()
	cd, wd := saDicts(t)
	wts := make([]float32, cd.Size()+wd.Size())
	head := &SAHeadKernel{
		Char:     text.CharNgramConfig{MinN: 2, MaxN: 3, Dict: cd},
		Weights:  wts[:cd.Size()],
		Tokenize: true,
	}
	tail := &SATailKernel{
		Word:    text.WordNgramConfig{MaxN: 1, Dict: wd},
		Weights: wts[cd.Size():],
		Link:    ml.LogisticRegression,
	}
	return &Plan{
		Name: "mini",
		Stages: []*Stage{
			{ID: 1, Ops: []ops.Op{&ops.Tokenizer{}}, Inputs: []int{InputID}, Kern: head, UsesAcc: true},
			{ID: 2, Ops: []ops.Op{&ops.WordNgram{MaxN: 1, Dict: wd}}, Inputs: []int{0}, Kern: tail, UsesAcc: true},
		},
	}
}

// TestStageStatsRecorded: executors move the white-box counters.
func TestStageStatsRecorded(t *testing.T) {
	pl := saMiniPlan(t)
	ec := &Exec{Pool: vector.NewPool()}
	in, out := vector.New(0), vector.New(0)
	for i := 0; i < 3; i++ {
		in.SetText("a nice product")
		if err := RunPlan(pl, ec, in, out); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range pl.Stages {
		st := s.Stats()
		if st.Execs != 3 {
			t.Fatalf("stage %d execs = %d", i, st.Execs)
		}
		if st.TotalNanos == 0 || st.AvgNanos() == 0 {
			t.Fatalf("stage %d recorded no latency: %+v", i, st)
		}
		if st.Errs != 0 {
			t.Fatalf("stage %d errs = %d", i, st.Errs)
		}
	}
	if kinds := pl.Stages[0].OpKinds(); len(kinds) != 1 || kinds[0] == "" {
		t.Fatalf("op kinds %v", kinds)
	}
}

// TestRunPlanCancellation: an expired Exec context stops RunPlan before
// the next stage kernel runs.
func TestRunPlanCancellation(t *testing.T) {
	pl := saMiniPlan(t)
	ec := &Exec{Pool: vector.NewPool()}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ec.Ctx = ctx
	in, out := vector.New(0), vector.New(0)
	in.SetText("nice")
	err := RunPlan(pl, ec, in, out)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	for i, s := range pl.Stages {
		if st := s.Stats(); st.Execs != 0 {
			t.Fatalf("stage %d ran despite cancellation", i)
		}
	}
	// Deadline-only enforcement, no context at all.
	ec.Ctx = nil
	ec.DeadlineNS = time.Now().Add(-time.Second).UnixNano()
	if err := RunPlan(pl, ec, in, out); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	// Cleared request state runs normally again.
	ec.ClearRequestState()
	if err := RunPlan(pl, ec, in, out); err != nil {
		t.Fatal(err)
	}
}
