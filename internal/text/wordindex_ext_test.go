package text_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"pretzel/internal/dataset"
	"pretzel/internal/ml"
	"pretzel/internal/ops"
	"pretzel/internal/plan"
	"pretzel/internal/text"
	"pretzel/internal/vector"
	"pretzel/internal/workload"
)

// wordDocs returns the token sequences the word kernels are held to: 100
// corpus reviews, the 200 held-out ones, and 100 random documents whose
// tokens are dictionary parts, whole terms, corpus words and random bytes
// (UTF-8, 0x00, 0xFF, non-word bytes and spaces: TokenizeFunc never emits
// a token with a space, so those walk the word index part by part).
func wordDocs(rng *rand.Rand, sc workload.Scale, set *workload.SASet) [][]string {
	var docs [][]string
	for _, r := range dataset.NewReviewCorpus(sc.CorpusVocab, sc.Seed).Generate(100, sc.ReviewLength) {
		docs = append(docs, text.Tokenize(r.Text, nil))
	}
	for _, s := range set.TestInputs {
		docs = append(docs, text.Tokenize(s, nil))
	}
	var terms, parts []string
	for _, d := range set.WordDicts {
		for ix := int32(0); int(ix) < d.Size(); ix++ {
			terms = append(terms, d.Term(ix))
			parts = append(parts, strings.Split(d.Term(ix), " ")...)
		}
	}
	alphabet := []string{"a", "e", "n", "o", "s", "t", "'", "\x00", "\xff", "é", "日", " ", ",", "9"}
	for i := 0; i < 100; i++ {
		doc := make([]string, rng.Intn(60))
		for k := range doc {
			switch rng.Intn(5) {
			case 0, 1:
				doc[k] = parts[rng.Intn(len(parts))]
			case 2:
				doc[k] = terms[rng.Intn(len(terms))]
			case 3:
				doc[k] = docs[rng.Intn(100)][0]
			default:
				var b strings.Builder
				for n := rng.Intn(12); b.Len() < n; {
					b.WriteString(alphabet[rng.Intn(len(alphabet))])
				}
				doc[k] = b.String()
			}
		}
		docs = append(docs, doc)
	}
	return docs
}

// TestWordKernelsMatchOps: on the six word dictionaries of the seeded SA
// workload, for MaxN 1, 2 and 3, on corpus, held-out and random
// documents:
//   - SATailKernel, both on a tokens input and tokenizing the text
//     itself, returns ops.WordNgram's features scored by ops.LinearPredictor
//     (the weights are multiples of 1/8, so every order of adding them
//     gives the same float32 bits);
//   - FeaturizeKernel's word block is ops.WordNgram's vector.
func TestWordKernelsMatchOps(t *testing.T) {
	sc := workload.SmallScale()
	set, err := workload.BuildSA(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.WordDicts) != 6 {
		t.Fatalf("%d word dictionaries, want 6", len(set.WordDicts))
	}
	rng := rand.New(rand.NewSource(57))
	docs := wordDocs(rng, sc, set)
	cd := set.CharDicts[0]
	ec := &plan.Exec{Pool: vector.NewPool()}
	toks, textIn, tokIn, wv := vector.New(0), vector.New(0), vector.New(0), vector.New(0)
	cv, want, got := vector.New(0), vector.New(0), vector.New(0)
	for v, d := range set.WordDicts {
		w := make([]float32, d.Size())
		for i := range w {
			w[i] = float32(rng.Intn(129)-64) / 8
		}
		const bias = 0.375
		for maxN := 1; maxN <= 3; maxN++ {
			cfg := text.WordNgramConfig{MaxN: maxN, Dict: d}
			wordOp := &ops.WordNgram{MaxN: maxN, Dict: d}
			scorer := &ops.LinearPredictor{Model: &ml.LinearModel{Kind: ml.LinearRegression, Weights: w, Bias: bias}}
			tail := &plan.SATailKernel{Word: cfg, Weights: w, Bias: bias, Link: ml.LinearRegression}
			tokenizing := &plan.SATailKernel{Word: cfg, Weights: w, Bias: bias, Link: ml.LinearRegression, Tokenize: true}
			feat := &plan.FeaturizeKernel{
				Char:    text.CharNgramConfig{MinN: 2, MaxN: 3, Dict: cd},
				Word:    cfg,
				CharDim: cd.Size(),
			}
			featRef := []ops.Op{
				&ops.CharNgram{MinN: 2, MaxN: 3, Dict: cd},
				&ops.Concat{Dims: []int{cd.Size(), d.Size()}},
			}
			for _, doc := range docs {
				// The tokens input, token by token, against the operators.
				toks.SetTokens(doc)
				tokIn.Reset()
				tokIn.Kind = vector.KindTokens
				for _, tok := range doc {
					tokIn.AppendTokenBytes([]byte(tok))
				}
				if err := wordOp.Transform([]*vector.Vector{toks}, wv); err != nil {
					t.Fatal(err)
				}
				if err := scorer.Transform([]*vector.Vector{wv}, want); err != nil {
					t.Fatal(err)
				}
				ec.Acc = 0
				if err := tail.Run(ec, []*vector.Vector{tokIn}, got); err != nil {
					t.Fatal(err)
				}
				if math.Float32bits(got.Dense[0]) != math.Float32bits(want.Dense[0]) {
					t.Fatalf("dict %d, MaxN %d, tokens %q: sa-tail %v, operators %v", v, maxN, doc, got.Dense[0], want.Dense[0])
				}

				// The text, tokenized by each side.
				textIn.SetText(strings.Join(doc, " "))
				if err := (&ops.Tokenizer{}).Transform([]*vector.Vector{textIn}, toks); err != nil {
					t.Fatal(err)
				}
				if err := wordOp.Transform([]*vector.Vector{toks}, wv); err != nil {
					t.Fatal(err)
				}
				if err := scorer.Transform([]*vector.Vector{wv}, want); err != nil {
					t.Fatal(err)
				}
				ec.Acc = 0
				if err := tokenizing.Run(ec, []*vector.Vector{textIn}, got); err != nil {
					t.Fatal(err)
				}
				if math.Float32bits(got.Dense[0]) != math.Float32bits(want.Dense[0]) {
					t.Fatalf("dict %d, MaxN %d, text %q: sa-tail %v, operators %v", v, maxN, textIn.Text, got.Dense[0], want.Dense[0])
				}
				if err := featRef[0].Transform([]*vector.Vector{toks}, cv); err != nil {
					t.Fatal(err)
				}
				if err := featRef[1].Transform([]*vector.Vector{cv, wv}, want); err != nil {
					t.Fatal(err)
				}
				if err := feat.Run(ec, []*vector.Vector{textIn}, got); err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("dict %d, MaxN %d, text %q: sa-featurize %v, operators %v", v, maxN, textIn.Text, got.Idx, want.Idx)
				}
			}
		}
	}
}

// TestWordNgramSumMatchesPush: on the six word dictionaries of the seeded
// SA workload, for MaxN 1 to 4, Sum returns the float32 bits of adding
// weights of mixed sign and magnitude in a Push callback and of
// joinedSum, the joined-bytes reference, over corpus, held-out and
// random documents.
func TestWordNgramSumMatchesPush(t *testing.T) {
	sc := workload.SmallScale()
	set, err := workload.BuildSA(sc)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(58))
	docs := wordDocs(rng, sc, set)
	var s text.WordNgramStream
	for v, d := range set.WordDicts {
		w := varied(rng, d.Size())
		for maxN := 1; maxN <= 4; maxN++ {
			cfg := text.WordNgramConfig{MaxN: maxN, Dict: d}
			s.Configure(&cfg)
			for _, doc := range docs {
				acc := float32(rng.NormFloat64())
				s.Reset()
				sum := acc
				for _, tok := range doc {
					sum = s.Sum([]byte(tok), w, sum)
				}
				s.Reset()
				push := acc
				for _, tok := range doc {
					s.Push([]byte(tok), func(ix int32) { push += w[ix] })
				}
				if ref := joinedSum(&cfg, doc, w, acc); math.Float32bits(sum) != math.Float32bits(push) || math.Float32bits(sum) != math.Float32bits(ref) {
					t.Fatalf("dict %d, MaxN %d, tokens %q: Sum %v, Push %v, joined reference %v", v, maxN, doc, sum, push, ref)
				}
			}
		}
	}
}
