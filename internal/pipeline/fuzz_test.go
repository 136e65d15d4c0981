package pipeline_test

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"

	"pretzel/internal/ml"
	"pretzel/internal/ops"
	"pretzel/internal/oven"
	"pretzel/internal/pipeline"
	"pretzel/internal/plan"
	"pretzel/internal/schema"
	"pretzel/internal/store"
	"pretzel/internal/vector"
	"pretzel/internal/workload"
)

// fuzzZips exports one tiny SA and one tiny AC model: the valid seeds
// of testdata/fuzz/FuzzImportBytes, byte for byte.
func fuzzZips(tb testing.TB) [][]byte {
	tb.Helper()
	sc := workload.Scale{
		SACount: 1, ACCount: 1,
		CorpusVocab: 40, CorpusDocs: 12, TrainDocs: 8,
		CharBudget: 24, WordBudget: 12,
		ACDim: 3, ACTrainRows: 16, ReviewLength: 6,
		Seed: 5,
	}
	sa, err := workload.BuildSA(sc)
	if err != nil {
		tb.Fatal(err)
	}
	ac, err := workload.BuildAC(sc)
	if err != nil {
		tb.Fatal(err)
	}
	var zips [][]byte
	for _, p := range []*pipeline.Pipeline{sa.Pipelines[0], ac.Pipelines[0]} {
		b, err := p.ExportBytes()
		if err != nil {
			tb.Fatal(err)
		}
		zips = append(zips, b)
	}
	return zips
}

// FuzzImportBytes runs the plain import and the indexed import, against
// one raw index that holds the valid seeds' operators, on every input.
// Neither may panic, both must accept the same inputs, and an accepted
// input must give equal parameter digests either way.
func FuzzImportBytes(f *testing.F) {
	s := store.New()
	for _, b := range fuzzZips(f) {
		p, err := pipeline.ImportIndexed(b, s)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := oven.Compile(p, s, oven.Options{}); err != nil {
			f.Fatal(err)
		}
	}
	if s.Stats().RawKeys == 0 {
		f.Fatal("the seeds indexed nothing")
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		plain, plainErr := pipeline.ImportBytes(b)
		indexed, err := pipeline.ImportIndexed(b, s)
		if (err == nil) != (plainErr == nil) {
			t.Fatalf("plain import error %v, indexed %v", plainErr, err)
		}
		if err != nil {
			return
		}
		for i, n := range plain.Nodes {
			ps, qs := n.Op.Params(), indexed.Nodes[i].Op.Params()
			if len(ps) != len(qs) {
				t.Fatalf("node %d: %d parameters plain, %d indexed", i, len(ps), len(qs))
			}
			for k := range ps {
				if store.DigestOf(ps[k]) != store.DigestOf(qs[k]) {
					t.Fatalf("node %d parameter %d: digests differ", i, k)
				}
			}
		}
	})
}

// hugeMaxNZip is fuzzZips's SA model with a WordNgram MaxN of 10^9, which
// an upload may claim: the seed testdata/fuzz/FuzzImportBytes/huge-maxn,
// byte for byte.
func hugeMaxNZip(tb testing.TB) []byte {
	tb.Helper()
	p, err := pipeline.ImportBytes(fuzzZips(tb)[0])
	if err != nil {
		tb.Fatal(err)
	}
	word := p.Nodes[2].Op.(*ops.WordNgram)
	word.MaxN = 1_000_000_000
	b, err := p.ExportBytes()
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// hugeMaxNGenericZip is Tokenizer → WordNgram → LinearPredictor over
// fuzzZips's SA word dictionary, with a WordNgram MaxN of 10^9. No SA
// kernel takes this shape, so it compiles to a generic stage that runs
// ops.WordNgram on the serving path: the seed
// testdata/fuzz/FuzzImportBytes/huge-maxn-generic, byte for byte.
func hugeMaxNGenericZip(tb testing.TB) []byte {
	tb.Helper()
	sa, err := pipeline.ImportBytes(fuzzZips(tb)[0])
	if err != nil {
		tb.Fatal(err)
	}
	word := sa.Nodes[2].Op.(*ops.WordNgram)
	weights := make([]float32, word.Dict.Size())
	for i := range weights {
		weights[i] = float32(i%7-3) / 4
	}
	p := &pipeline.Pipeline{
		Name:        "wordonly",
		InputSchema: sa.InputSchema,
		Stats:       pipeline.Stats{MaxVectorSize: len(weights), SparseOutput: true},
		Nodes: []pipeline.Node{
			{Op: &ops.Tokenizer{}, Inputs: []int{pipeline.InputID}},
			{Op: &ops.WordNgram{MaxN: 1_000_000_000, Dict: word.Dict}, Inputs: []int{0}},
			{Op: &ops.LinearPredictor{Model: &ml.LinearModel{Kind: ml.LogisticRegression, Weights: weights}}, Inputs: []int{1}},
		},
	}
	b, err := p.ExportBytes()
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// wordTermZip is fuzzZips's SA model with one more word term of the
// given parts, "w w ... w", and its weight: with 9 parts, the seed
// testdata/fuzz/FuzzImportBytes/nine-part-term, byte for byte.
func wordTermZip(tb testing.TB, parts int) []byte {
	tb.Helper()
	p, err := pipeline.ImportBytes(fuzzZips(tb)[0])
	if err != nil {
		tb.Fatal(err)
	}
	word := p.Nodes[2].Op.(*ops.WordNgram)
	word.Dict.Add(strings.TrimSuffix(strings.Repeat("w ", parts), " "))
	p.Nodes[3].Op.(*ops.Concat).Dims[1] = word.Dict.Size()
	m := p.Nodes[4].Op.(*ops.LinearPredictor).Model
	m.Weights = append(m.Weights, 0.5)
	p.Stats.MaxVectorSize++
	b, err := p.ExportBytes()
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestImportWordTermParts: the nine-part-term seed fails the import on
// its 9-part word term alone: the same model with an 8-part term imports
// and compiles.
func TestImportWordTermParts(t *testing.T) {
	b := readSeed(t, "nine-part-term")
	if !bytes.Equal(b, wordTermZip(t, 9)) {
		t.Fatal("the nine-part-term seed is not wordTermZip's 9-part archive")
	}
	if _, err := pipeline.ImportBytes(b); err == nil || !strings.Contains(err.Error(), "WordNgram term of 9 parts (limit 8)") {
		t.Fatalf("9-part term: import error %v", err)
	}
	p, err := pipeline.ImportBytes(wordTermZip(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := oven.Compile(p, store.New(), oven.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
}

// parseDimZip is ParseFloats → Imputer with the given Dim: with Dim -5
// and 65,537, the seeds testdata/fuzz/FuzzImportBytes/parsefloats-neg-dim
// and parsefloats-huge-dim, byte for byte. The Imputer takes any width,
// so ParseFloats's own bound alone decides the import.
func parseDimZip(tb testing.TB, dim int) []byte {
	tb.Helper()
	p := &pipeline.Pipeline{
		Name:        "parsedim",
		InputSchema: schema.Text("Line"),
		Stats:       pipeline.Stats{MaxVectorSize: max(dim, 1)},
		Nodes: []pipeline.Node{
			{Op: &ops.ParseFloats{Sep: ',', Dim: dim}, Inputs: []int{pipeline.InputID}},
			{Op: &ops.Imputer{Fill: &ops.Floats{V: []float32{0}}}, Inputs: []int{0}},
		},
	}
	b, err := p.ExportBytes()
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestImportParseFloatsDim: an upload's ParseFloats.Dim imports only in
// 1..65,536. A negative Dim panics every predict, 0 parses nothing, and
// a larger one sizes every predict's vector past what a /predict body
// can fill. At both ends of the range the model compiles and parses a
// line of Dim fields.
func TestImportParseFloatsDim(t *testing.T) {
	for name, dim := range map[string]int{"parsefloats-neg-dim": -5, "parsefloats-huge-dim": 65537} {
		if !bytes.Equal(readSeed(t, name), parseDimZip(t, dim)) {
			t.Fatalf("the %s seed is not parseDimZip's Dim %d archive", name, dim)
		}
	}
	ec := &plan.Exec{Pool: vector.NewPool()}
	for _, tc := range []struct {
		dim int
		msg string // "" when the import must succeed
	}{
		{-5, "ParseFloats dim -5 outside 1..65536"},
		{0, "ParseFloats dim 0 outside 1..65536"},
		{65537, "ParseFloats dim 65537 outside 1..65536"},
		{1, ""},
		{65536, ""},
	} {
		p, err := pipeline.ImportBytes(parseDimZip(t, tc.dim))
		if tc.msg != "" {
			if err == nil || !strings.Contains(err.Error(), tc.msg) {
				t.Fatalf("dim %d: import error %v, want %q", tc.dim, err, tc.msg)
			}
			continue
		}
		if err != nil {
			t.Fatalf("dim %d: %v", tc.dim, err)
		}
		pl, err := oven.Compile(p, store.New(), oven.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		in, out := vector.New(0), vector.New(0)
		in.SetText(strings.TrimSuffix(strings.Repeat("1.5,", tc.dim), ","))
		if err := plan.RunPlan(pl, ec, in, out); err != nil {
			t.Fatalf("dim %d: %v", tc.dim, err)
		}
		if len(out.Dense) != tc.dim || out.Dense[tc.dim-1] != 1.5 {
			t.Fatalf("dim %d: output of %d, last %v", tc.dim, len(out.Dense), out.Dense[len(out.Dense)-1])
		}
	}
}

// readSeed returns the bytes of one committed FuzzImportBytes seed.
func readSeed(t *testing.T, name string) []byte {
	t.Helper()
	seed, err := os.ReadFile("testdata/fuzz/FuzzImportBytes/" + name)
	if err != nil {
		t.Fatal(err)
	}
	_, quoted, _ := strings.Cut(strings.TrimSpace(string(seed)), "\n[]byte(")
	b, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
	if err != nil {
		t.Fatal(err)
	}
	return []byte(b)
}

// TestImportHugeMaxNGeneric: the huge-maxn-generic seed imports and
// compiles to a generic word n-gram stage, and on a 1,000-token
// document it predicts exactly what the same model with MaxN set to the
// dictionary's longest term does: the oracle counts n only that far.
func TestImportHugeMaxNGeneric(t *testing.T) {
	b := readSeed(t, "huge-maxn-generic")
	if !bytes.Equal(b, hugeMaxNGenericZip(t)) {
		t.Fatal("the huge-maxn-generic seed is not hugeMaxNGenericZip's archive")
	}
	huge, err := pipeline.ImportBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := pipeline.ImportBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	word := exact.Nodes[1].Op.(*ops.WordNgram)
	word.MaxN = word.Dict.Parts()
	if word.MaxN < 2 {
		t.Fatalf("the seed's dictionary has no multi-word term (longest %d parts)", word.MaxN)
	}
	s := store.New()
	ec := &plan.Exec{Pool: vector.NewPool()}
	in := vector.New(0)
	in.SetText(strings.Repeat("great nice bad product ", 250))
	var got [2]float32
	for i, p := range []*pipeline.Pipeline{huge, exact} {
		pl, err := oven.Compile(p, s, oven.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if k := pl.Stages[0].Kern.Kind(); k != "generic" {
			t.Fatalf("first stage %s, want generic", k)
		}
		out := vector.New(0)
		if err := plan.RunPlan(pl, ec, in, out); err != nil {
			t.Fatal(err)
		}
		got[i] = out.Dense[0]
	}
	if got[0] != got[1] {
		t.Fatalf("MaxN 10^9 predicts %v, MaxN %d predicts %v", got[0], word.MaxN, got[1])
	}
}

// TestImportHugeMaxN: the huge-maxn seed imports, compiles to the pushed
// SA plan and predicts what the unoptimized pipeline does. The word
// stream counts grams only up to the dictionary's longest term, so it
// holds one token, not 10^9-1.
func TestImportHugeMaxN(t *testing.T) {
	b := readSeed(t, "huge-maxn")
	if !bytes.Equal(b, hugeMaxNZip(t)) {
		t.Fatal("the huge-maxn seed is not hugeMaxNZip's archive")
	}
	p, err := pipeline.ImportBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if n := p.Nodes[2].Op.(*ops.WordNgram).MaxN; n != 1_000_000_000 {
		t.Fatalf("MaxN %d after import", n)
	}
	pl, err := oven.Compile(p, store.New(), oven.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if k := pl.Stages[len(pl.Stages)-1].Kern.Kind(); k != "sa-tail" {
		t.Fatalf("last stage %s, want sa-tail", k)
	}
	ec := &plan.Exec{Pool: vector.NewPool()}
	in, got, want := vector.New(0), vector.New(0), vector.New(0)
	for _, s := range []string{"", "a", "nice great product", strings.Repeat("great nice bad ", 40)} {
		in.SetText(s)
		if err := plan.RunPlan(pl, ec, in, got); err != nil {
			t.Fatal(err)
		}
		if err := p.Run(in, want, nil); err != nil {
			t.Fatal(err)
		}
		if d := got.Dense[0] - want.Dense[0]; d > 1e-5 || d < -1e-5 {
			t.Fatalf("%q: plan %v, pipeline %v", s, got.Dense[0], want.Dense[0])
		}
	}
}

// renamed is an operator exported under another kind's name.
type renamed struct {
	ops.Op
	kind string
}

func (r renamed) Info() ops.Info {
	i := r.Op.Info()
	i.Kind = r.kind
	return i
}

// unknownKindZip is fuzzZips's SA model with its LinearPredictor
// exported as a Calibrator, a kind ops does not register: the seed
// testdata/fuzz/FuzzImportBytes/unknown-kind, byte for byte.
func unknownKindZip(tb testing.TB) []byte {
	tb.Helper()
	p, err := pipeline.ImportBytes(fuzzZips(tb)[0])
	if err != nil {
		tb.Fatal(err)
	}
	p.Nodes[4].Op = renamed{p.Nodes[4].Op, "Calibrator"}
	b, err := p.ExportBytes()
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestImportUnknownKind: the unknown-kind seed fails the import on the
// kind its manifest names, although its parameters are a valid
// LinearPredictor's.
func TestImportUnknownKind(t *testing.T) {
	b := readSeed(t, "unknown-kind")
	if !bytes.Equal(b, unknownKindZip(t)) {
		t.Fatal("the unknown-kind seed is not unknownKindZip's archive")
	}
	if _, err := pipeline.ImportBytes(b); err == nil || !strings.Contains(err.Error(), `ops: unknown operator kind "Calibrator"`) {
		t.Fatalf("import error %v", err)
	}
}
