package ops

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"pretzel/internal/ml"
	"pretzel/internal/schema"
	"pretzel/internal/text"
	"pretzel/internal/vector"
)

func textVec(s string) *vector.Vector {
	v := vector.New(0)
	v.SetText(s)
	return v
}

func tokensVec(toks ...string) *vector.Vector {
	v := vector.New(0)
	v.SetTokens(toks)
	return v
}

func denseVec(vals ...float32) *vector.Vector {
	v := vector.New(len(vals))
	v.SetDense(vals)
	return v
}

// identity returns what the oven's operator digest hashes: the kind,
// the JSON configuration and every parameter's canonical content bytes.
func identity(t *testing.T, op Op) string {
	t.Helper()
	var b bytes.Buffer
	b.WriteString(op.Info().Kind + "\x00")
	if cfg, err := json.Marshal(op); err == nil {
		b.Write(cfg)
	}
	for _, p := range op.Params() {
		b.WriteByte(0)
		if err := p.WriteContent(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// roundTrip serializes an op and reads it back through the registry.
func roundTrip(t *testing.T, op Op) Op {
	t.Helper()
	var buf bytes.Buffer
	if err := op.WriteParams(&buf); err != nil {
		t.Fatalf("WriteParams(%s): %v", op.Info().Kind, err)
	}
	got, err := Read(op.Info().Kind, &buf)
	if err != nil {
		t.Fatalf("Read(%s): %v", op.Info().Kind, err)
	}
	if identity(t, got) != identity(t, op) {
		t.Fatalf("%s: identity changed over round trip", op.Info().Kind)
	}
	return got
}

func TestTokenizerOp(t *testing.T) {
	op := &Tokenizer{}
	out := vector.New(0)
	if err := op.Transform([]*vector.Vector{textVec("Hello World")}, out); err != nil {
		t.Fatal(err)
	}
	if out.Kind != vector.KindTokens || len(out.Tokens) != 2 || out.Tokens[0] != "hello" {
		t.Fatalf("got %v", out)
	}
	if err := op.Transform([]*vector.Vector{denseVec(1)}, out); err == nil {
		t.Fatal("wrong input kind must error")
	}
	s, err := op.OutSchema([]*schema.Schema{schema.Text("t")})
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := s.Single(); c.Kind != schema.ColTokens {
		t.Fatal("output schema")
	}
	roundTrip(t, op)
}

func buildCharDict(tokens []string, minN, maxN int) *text.Dict {
	b := text.NewDictBuilder()
	for _, tok := range tokens {
		text.ObserveCharNgrams(b, []byte(tok), minN, maxN)
	}
	return b.Build(0)
}

func TestCharNgramOp(t *testing.T) {
	d := buildCharDict([]string{"nice", "product"}, 2, 3)
	op := &CharNgram{MinN: 2, MaxN: 3, Dict: d}
	out := vector.New(0)
	if err := op.Transform([]*vector.Vector{tokensVec("nice")}, out); err != nil {
		t.Fatal(err)
	}
	if out.Kind != vector.KindSparse || len(out.Idx) == 0 || out.Dim != d.Size() {
		t.Fatalf("got %v", out)
	}
	// Repeated grams must be coalesced with counts.
	if err := op.Transform([]*vector.Vector{tokensVec("nini")}, out); err != nil {
		t.Fatal(err)
	}
	ni := d.Lookup("ni")
	if ni >= 0 && out.At(int(ni)) != 2 {
		t.Fatalf("count of 'ni' = %v, want 2", out.At(int(ni)))
	}
	got := roundTrip(t, op).(*CharNgram)
	if got.Dim() != op.Dim() || got.MinN != 2 || got.MaxN != 3 {
		t.Fatal("config lost in round trip")
	}
}

func TestWordNgramOp(t *testing.T) {
	b := text.NewDictBuilder()
	text.ObserveWordNgrams(b, []string{"very", "nice", "product"}, 2, nil)
	d := b.Build(0)
	op := &WordNgram{MaxN: 2, Dict: d}
	out := vector.New(0)
	if err := op.Transform([]*vector.Vector{tokensVec("very", "nice")}, out); err != nil {
		t.Fatal(err)
	}
	if out.At(int(d.Lookup("very nice"))) != 1 {
		t.Fatal("bigram missing")
	}
	roundTrip(t, op)
}

func TestConcatOp(t *testing.T) {
	op := &Concat{Dims: []int{2, 3}}
	if op.Dim() != 5 {
		t.Fatal("dim")
	}
	out := vector.New(0)
	// Dense + dense.
	if err := op.Transform([]*vector.Vector{denseVec(1, 2), denseVec(3, 4, 5)}, out); err != nil {
		t.Fatal(err)
	}
	if out.Kind != vector.KindDense || out.Dense[4] != 5 {
		t.Fatalf("dense concat: %v", out)
	}
	// Sparse + dense -> sparse with offset.
	sp := vector.New(0)
	sp.UseSparse(2)
	sp.AppendSparse(1, 9)
	if err := op.Transform([]*vector.Vector{sp, denseVec(0, 7, 0)}, out); err != nil {
		t.Fatal(err)
	}
	if out.Kind != vector.KindSparse || out.At(1) != 9 || out.At(3) != 7 || len(out.Idx) != 2 {
		t.Fatalf("sparse concat: %v idx=%v val=%v", out, out.Idx, out.Val)
	}
	// Arity mismatch.
	if err := op.Transform([]*vector.Vector{denseVec(1, 2)}, out); err == nil {
		t.Fatal("arity mismatch must error")
	}
	// Schema.
	s, err := op.OutSchema([]*schema.Schema{schema.Vector("a", 2, true), schema.Vector("b", 3, false)})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := s.Single()
	if c.Dim != 5 || !c.Sparse {
		t.Fatalf("schema: %+v", c)
	}
	if _, err := op.OutSchema([]*schema.Schema{schema.Vector("a", 9, true), schema.Vector("b", 3, false)}); err == nil {
		t.Fatal("dim mismatch must error")
	}
	roundTrip(t, op)
}

func TestMeanVarScalerOp(t *testing.T) {
	op := &MeanVarScaler{Mean: &Floats{V: []float32{1, 2}}, Std: &Floats{V: []float32{2, 0}}}
	out := vector.New(0)
	if err := op.Transform([]*vector.Vector{denseVec(3, 5)}, out); err != nil {
		t.Fatal(err)
	}
	if out.Dense[0] != 1 { // (3-1)/2
		t.Fatalf("scaled[0]=%v", out.Dense[0])
	}
	if out.Dense[1] != 3 { // std 0 -> treated as 1
		t.Fatalf("scaled[1]=%v", out.Dense[1])
	}
	got := roundTrip(t, op).(*MeanVarScaler)
	if got.Mean.V[1] != 2 || got.Std.V[0] != 2 {
		t.Fatal("params lost")
	}
}

func TestImputerOp(t *testing.T) {
	op := &Imputer{Fill: &Floats{V: []float32{5, 6}}}
	out := vector.New(0)
	nan := float32(math.NaN())
	if err := op.Transform([]*vector.Vector{denseVec(nan, 2)}, out); err != nil {
		t.Fatal(err)
	}
	if out.Dense[0] != 5 || out.Dense[1] != 2 {
		t.Fatalf("imputed: %v", out.Dense)
	}
	roundTrip(t, op)
}

func TestParseFloatsOp(t *testing.T) {
	op := &ParseFloats{Sep: ',', Dim: 3}
	out := vector.New(0)
	if err := op.Transform([]*vector.Vector{textVec("1.5, -2, 3e1")}, out); err != nil {
		t.Fatal(err)
	}
	if out.Dense[0] != 1.5 || out.Dense[1] != -2 || out.Dense[2] != 30 {
		t.Fatalf("parsed: %v", out.Dense)
	}
	if err := op.Transform([]*vector.Vector{textVec("1,2")}, out); err == nil {
		t.Fatal("missing fields must error")
	}
	for _, line := range []string{"1,2,3,4", "1,2,3,"} {
		err := op.Transform([]*vector.Vector{textVec(line)}, out)
		if err == nil || !strings.Contains(err.Error(), "needs 3 fields, line has 4") {
			t.Fatalf("%q: error %v, want too many fields", line, err)
		}
	}
	if err := op.Transform([]*vector.Vector{textVec("a,b,c")}, out); err == nil {
		t.Fatal("garbage must error")
	}
	roundTrip(t, op)
}

func trainedForest(t *testing.T) *ml.Forest {
	t.Helper()
	xs := [][]float32{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 1}, {0, 4}}
	ys := []float32{0, 1, 1, 2, 4, 6, 5, 4}
	f, err := ml.TrainForest(xs, ys, ml.ForestOptions{NumTrees: 3, Tree: ml.TreeOptions{MaxDepth: 3, MinLeaf: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestMLOps(t *testing.T) {
	xs := [][]float32{{1, 0}, {0, 1}, {1, 1}, {2, 1}, {0, 0}, {3, 2}}

	pca, err := ml.TrainPCA(xs, ml.PCAOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	pop := &PCATransform{Model: pca}
	out := vector.New(0)
	if err := pop.Transform([]*vector.Vector{denseVec(1, 1)}, out); err != nil {
		t.Fatal(err)
	}
	if out.Dim != 1 {
		t.Fatal("pca out dim")
	}
	roundTrip(t, pop)

	km, err := ml.TrainKMeans(xs, ml.KMeansOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	kop := &KMeansTransform{Model: km}
	if err := kop.Transform([]*vector.Vector{denseVec(1, 1)}, out); err != nil {
		t.Fatal(err)
	}
	if out.Dim != 2 {
		t.Fatal("kmeans out dim")
	}
	roundTrip(t, kop)

	tf := NewTreeFeaturize(trainedForest(t))
	if err := tf.Transform([]*vector.Vector{denseVec(1, 1)}, out); err != nil {
		t.Fatal(err)
	}
	if out.Kind != vector.KindDense || out.Dim != tf.feat.Dim() {
		t.Fatalf("tree featurize: %v", out)
	}
	hot := 0
	for _, v := range out.Dense {
		if v == 1 {
			hot++
		}
	}
	if hot != 3 { // one active leaf per tree
		t.Fatalf("active leaves = %d, want 3", hot)
	}
	roundTrip(t, tf)

	fop := &ForestPredictor{Model: trainedForest(t)}
	if err := fop.Transform([]*vector.Vector{denseVec(3, 3)}, out); err != nil {
		t.Fatal(err)
	}
	if len(out.Dense) != 1 {
		t.Fatal("forest predictor out")
	}
	roundTrip(t, fop)

	lp := &LinearPredictor{Model: &ml.LinearModel{Kind: ml.LogisticRegression, Weights: []float32{1, -1}}}
	if err := lp.Transform([]*vector.Vector{denseVec(5, 0)}, out); err != nil {
		t.Fatal(err)
	}
	if out.Dense[0] < 0.99 {
		t.Fatalf("logistic score %v", out.Dense[0])
	}
	sp := vector.New(0)
	sp.UseSparse(2)
	sp.AppendSparse(1, 5)
	if err := lp.Transform([]*vector.Vector{sp}, out); err != nil {
		t.Fatal(err)
	}
	if out.Dense[0] > 0.01 {
		t.Fatalf("sparse logistic score %v", out.Dense[0])
	}
	roundTrip(t, lp)

	ys := []int{0, 1, 0, 1, 0, 1}
	mc, err := ml.TrainMultiClassForest(xs, ys, ml.MultiClassOptions{NumClasses: 2, Forest: ml.ForestOptions{NumTrees: 2}})
	if err != nil {
		t.Fatal(err)
	}
	mop := &MultiClassPredictor{Model: mc}
	if err := mop.Transform([]*vector.Vector{denseVec(1, 1)}, out); err != nil {
		t.Fatal(err)
	}
	if out.Dim != 2 {
		t.Fatal("multiclass out dim")
	}
	roundTrip(t, mop)
}

func TestParamSharing(t *testing.T) {
	d := buildCharDict([]string{"shared"}, 2, 2)
	a := &CharNgram{MinN: 2, MaxN: 2, Dict: d}
	b := &CharNgram{MinN: 2, MaxN: 2, Dict: d}
	if identity(t, a) != identity(t, b) {
		t.Fatal("identical ops must share identity")
	}
	// Same dict content, different op kind -> different identity.
	w := &WordNgram{MaxN: 1, Dict: d}
	if identity(t, a) == identity(t, w) {
		t.Fatal("different op kinds must not collide")
	}
	// SetParams swaps the shared instance in.
	d2 := buildCharDict([]string{"shared"}, 2, 2)
	c := &CharNgram{MinN: 2, MaxN: 2, Dict: d2}
	if err := c.SetParams([]Param{d}); err != nil {
		t.Fatal(err)
	}
	if c.Dict != d {
		t.Fatal("SetParams did not install shared dict")
	}
	if err := c.SetParams([]Param{&Floats{}}); err == nil {
		t.Fatal("wrong param type must error")
	}
}

func TestSetParamsArityErrors(t *testing.T) {
	for _, op := range []Op{&Tokenizer{}, &Concat{}, &ParseFloats{}} {
		if err := op.SetParams([]Param{&Floats{}}); err == nil {
			t.Fatalf("%s: extra param must error", op.Info().Kind)
		}
	}
	sc := &MeanVarScaler{}
	if err := sc.SetParams(nil); err == nil {
		t.Fatal("missing params must error")
	}
}

func TestReadUnknownKind(t *testing.T) {
	if _, err := Read("NoSuchOp", strings.NewReader("")); err == nil {
		t.Fatal("unknown kind must error")
	}
}

func TestKindsRegistered(t *testing.T) {
	want := []string{
		"Tokenizer", "CharNgram", "WordNgram",
		"Concat", "MeanVarScaler", "Imputer", "ParseFloats",
		"PCATransform", "KMeansTransform", "TreeFeaturize",
		"LinearPredictor", "ForestPredictor", "MultiClassPredictor",
	}
	for _, k := range want {
		if registry[k] == nil {
			t.Fatalf("operator %s not registered", k)
		}
	}
	if len(registry) != len(want) {
		t.Fatalf("%d operators registered, want the %d above", len(registry), len(want))
	}
}

func TestMemBytes(t *testing.T) {
	d := buildCharDict([]string{"abcdef"}, 2, 3)
	op := &CharNgram{MinN: 2, MaxN: 3, Dict: d}
	if MemBytes(op) <= MemBytes(&Tokenizer{}) {
		t.Fatal("dict op must be bigger than empty op")
	}
}

func TestChecksumIncludesConfig(t *testing.T) {
	// Regression: parameter-less operators with different configurations
	// must have different identities, or the plan store would share
	// stages across incompatible operators.
	a := &Concat{Dims: []int{4}}
	b := &Concat{Dims: []int{3, 5}}
	if identity(t, a) == identity(t, b) {
		t.Fatal("Concat identity must depend on Dims")
	}
	p1 := &ParseFloats{Sep: ',', Dim: 3}
	p2 := &ParseFloats{Sep: ',', Dim: 4}
	if identity(t, p1) == identity(t, p2) {
		t.Fatal("ParseFloats identity must depend on Dim")
	}
}

func TestFloatsParam(t *testing.T) {
	a := &Floats{V: []float32{1, 2, 3}}
	b := &Floats{V: []float32{1, 2, 3}}
	if identity(t, &Imputer{Fill: a}) != identity(t, &Imputer{Fill: b}) {
		t.Fatal("equal floats must share content")
	}
	c := &Floats{V: []float32{1, 2, 4}}
	if identity(t, &Imputer{Fill: a}) == identity(t, &Imputer{Fill: c}) {
		t.Fatal("different floats must differ")
	}
	if a.MemBytes() < 12 {
		t.Fatal("membytes")
	}
}
