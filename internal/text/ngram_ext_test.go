package text_test

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"pretzel/internal/dataset"
	"pretzel/internal/text"
	"pretzel/internal/workload"
)

// extractSum is the reference for SumToken: acc plus the weights of
// ExtractToken's emitted indices, added in emission order.
func extractSum(c *text.CharNgramConfig, tok []byte, w []float32, acc float32) float32 {
	c.ExtractToken(tok, func(ix int32) { acc += w[ix] })
	return acc
}

// varied returns n weights of mixed sign and magnitude (10^-3..10^3), so
// that adding them in any other order changes the float32 sum.
func varied(rng *rand.Rand, n int) []float32 {
	w := make([]float32, n)
	for i := range w {
		w[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3)))
	}
	return w
}

// sumTokens returns corpus tokens and random ones of 0-70 bytes: ASCII,
// 0x00 and 0xFF bytes, UTF-8, and corpus tokens repeated past 64 bytes.
func sumTokens(rng *rand.Rand, inputs []string) [][]byte {
	var corpus [][]byte
	for _, s := range inputs {
		for _, tok := range text.Tokenize(s, nil) {
			corpus = append(corpus, []byte(tok))
		}
	}
	rng.Shuffle(len(corpus), func(i, j int) { corpus[i], corpus[j] = corpus[j], corpus[i] })
	tokens := append([][]byte{{}}, corpus[:min(len(corpus), 400)]...)
	alphabet := []string{"a", "b", "e", "n", "o", "s", "t", "\x00", "\xff", "é", "ß", "日"}
	for l := 0; l <= 70; l++ {
		for r := 0; r < 4; r++ {
			var tok []byte
			for len(tok) < l {
				tok = append(tok, alphabet[rng.Intn(len(alphabet))]...)
			}
			tokens = append(tokens, tok[:l])
		}
	}
	for _, tok := range corpus[:40] {
		if len(tok) > 0 {
			tokens = append(tokens, bytes.Repeat(tok, 64/len(tok)+1))
		}
	}
	return tokens
}

// TestCharNgramSumMatchesExtract: on the seven char dictionaries of the
// seeded SA workload, plus one holding the tokens' own 1-9 grams so that
// hashed (8+ byte) grams hit, SumToken returns the float32 bits of the sum
// over ExtractToken's emission order, for every gram range from (1,1) to
// (2,9) and for (0,3), whose empty grams key to 0.
func TestCharNgramSumMatchesExtract(t *testing.T) {
	set, err := workload.BuildSA(workload.SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(set.CharDicts) != 7 {
		t.Fatalf("%d char dictionaries, want 7", len(set.CharDicts))
	}
	rng := rand.New(rand.NewSource(52))
	tokens := sumTokens(rng, set.TestInputs)
	b := text.NewDictBuilder()
	for _, tok := range tokens {
		text.ObserveCharNgrams(b, tok, 1, 9)
	}
	dicts := append(set.CharDicts[:len(set.CharDicts):len(set.CharDicts)], b.Build(20000))

	ranges := [][2]int{{1, 1}, {1, 3}, {2, 2}, {2, 5}, {3, 4}, {1, 7}, {2, 8}, {2, 9}, {0, 3}}
	for v, d := range dicts {
		w := varied(rng, d.Size())
		for _, r := range ranges {
			cfg := text.CharNgramConfig{MinN: r[0], MaxN: r[1], Dict: d}
			for _, tok := range tokens {
				acc := float32(rng.NormFloat64())
				got, want := cfg.SumToken(tok, w, acc), extractSum(&cfg, tok, w, acc)
				if math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("dict %d, grams %v, token %q: SumToken %v, ExtractToken sum %v", v, r, tok, got, want)
				}
			}
		}
	}
}

// TestCharNgramSumZeroAlloc: the fused loop allocates nothing, on short
// and hashed grams alike.
func TestCharNgramSumZeroAlloc(t *testing.T) {
	b := text.NewDictBuilder()
	toks := [][]byte{[]byte("wonderful"), []byte("a"), []byte("extraordinarily-long-token-over-eight"), {}}
	for _, tok := range toks {
		text.ObserveCharNgrams(b, tok, 1, 9)
	}
	d := b.Build(0)
	w := varied(rand.New(rand.NewSource(1)), d.Size())
	cfg := text.CharNgramConfig{MinN: 1, MaxN: 9, Dict: d}
	var acc float32
	if n := testing.AllocsPerRun(100, func() {
		for _, tok := range toks {
			acc = cfg.SumToken(tok, w, acc)
		}
	}); n != 0 {
		t.Fatalf("SumToken allocates %v per run", n)
	}
}

// FuzzCharNgramSum: for any token and gram range, SumToken agrees bit for
// bit with the sum over ExtractToken, on a dictionary that holds the
// token's grams at even offsets (hits) but not at odd ones (misses).
func FuzzCharNgramSum(f *testing.F) {
	f.Fuzz(func(t *testing.T, tok []byte, minN, maxN int) {
		if len(tok) > 256 {
			tok = tok[:256]
		}
		lo, hi := int(uint(minN)%11), int(uint(maxN)%13)
		b := text.NewDictBuilder()
		b.Observe("")
		for n := 1; n <= 12; n++ {
			for i := 0; i+n <= len(tok); i += 2 {
				b.ObserveBytes(tok[i : i+n])
			}
		}
		d := b.Build(0)
		w := make([]float32, d.Size())
		for i := range w {
			w[i] = float32(1-2*(i&1)) / float32(i+3)
		}
		cfg := text.CharNgramConfig{MinN: lo, MaxN: hi, Dict: d}
		got, want := cfg.SumToken(tok, w, 0.1), extractSum(&cfg, tok, w, 0.1)
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("grams %d-%d, token %q: SumToken %v, ExtractToken sum %v", lo, hi, tok, got, want)
		}
	})
}

var benchSum float32

// BenchmarkCharNgramSum: the char block of an SA head over the tokens of
// held-out reviews (those BenchmarkDictLookupBytes takes its grams from),
// 2-5 grams, per token: the fused loop against ExtractToken with a
// weight-adding callback.
func BenchmarkCharNgramSum(b *testing.B) {
	benchDicts.once.Do(loadBenchDicts)
	cfg := text.CharNgramConfig{MinN: 2, MaxN: 5, Dict: benchDicts.char}
	w := varied(rand.New(rand.NewSource(1)), benchDicts.char.Size())
	toks := benchDicts.tokens
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		var acc float32
		for i := 0; i < b.N; i++ {
			acc = cfg.SumToken(toks[i%len(toks)], w, acc)
		}
		benchSum = acc
	})
	b.Run("extract", func(b *testing.B) {
		b.ReportAllocs()
		var acc float32
		for i := 0; i < b.N; i++ {
			cfg.ExtractToken(toks[i%len(toks)], func(ix int32) { acc += w[ix] })
		}
		benchSum = acc
	})
}

// benchWords holds a word dictionary built like the benchmark catalog's
// MaxN-3 SA version (unigrams to trigrams of 2,500 reviews over an
// 8,000-word vocabulary, capped at 40k terms) and 200 held-out reviews of
// about 300 words, tokenized.
var benchWords struct {
	once    sync.Once
	dict    *text.Dict
	reviews [][][]byte
}

func loadBenchWords() {
	corpus := dataset.NewReviewCorpus(8000, 2018)
	b := text.NewDictBuilder()
	var scratch []byte
	for _, doc := range corpus.Generate(2500, 20) {
		scratch = text.ObserveWordNgrams(b, text.Tokenize(doc.Text, nil), 3, scratch)
	}
	benchWords.dict = b.Build(40000)
	for _, doc := range corpus.Generate(200, 300) {
		var toks [][]byte
		for _, tok := range text.Tokenize(doc.Text, nil) {
			toks = append(toks, []byte(tok))
		}
		benchWords.reviews = append(benchWords.reviews, toks)
	}
}

// BenchmarkWordNgramSum: the word block of an SA tail over one held-out
// 300-word review, MaxN 3, per review: Sum, and Push with a
// weight-adding callback.
func BenchmarkWordNgramSum(b *testing.B) {
	benchWords.once.Do(loadBenchWords)
	cfg := text.WordNgramConfig{MaxN: 3, Dict: benchWords.dict}
	w := varied(rand.New(rand.NewSource(1)), cfg.Dict.Size())
	revs := benchWords.reviews
	for _, bc := range []struct {
		name string
		push bool
	}{{"index", false}, {"push", true}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var s text.WordNgramStream
			s.Configure(&cfg)
			var acc float32
			emit := func(ix int32) { acc += w[ix] }
			for i := 0; i < b.N; i++ {
				s.Reset()
				for _, tok := range revs[i%len(revs)] {
					if bc.push {
						s.Push(tok, emit)
					} else {
						acc = s.Sum(tok, w, acc)
					}
				}
			}
			benchSum = acc
		})
	}
}

// joinedSum is the reference for WordNgramStream.Sum: for each token in
// order, acc plus w[ix] for each n = 1 to min(MaxN, Parts()) whose last
// n tokens, joined with spaces, are the term ix (the unigram even when
// MaxN is below 1).
func joinedSum(cfg *text.WordNgramConfig, tokens []string, w []float32, acc float32) float32 {
	maxN := max(min(cfg.MaxN, cfg.Dict.Parts()), 1)
	for i := range tokens {
		for n := 1; n <= maxN && n <= i+1; n++ {
			if ix := cfg.Dict.Lookup(strings.Join(tokens[i+1-n:i+1], " ")); ix >= 0 {
				acc += w[ix]
			}
		}
	}
	return acc
}

// FuzzWordNgramSum: for any tokens (toks split at '\n', so a token may
// hold a space, be empty or be any bytes), any dictionary and MaxN 0-9,
// Sum returns the float32 bits of adding the weights in a Push callback
// and of joinedSum, the joined-bytes reference, and Push emits the
// indices ExtractTokens emits (in stream order, not ExtractTokens' order,
// so as a multiset). The dictionary holds the terms (split at '\n') and
// the 1-3 grams that start at every fourth token, so grams hit, the
// second and third of each four tokens are parts of multi-word terms
// only, and the fourth is in no term unless the terms name it.
func FuzzWordNgramSum(f *testing.F) {
	f.Fuzz(func(t *testing.T, toks, terms []byte, maxN int) {
		tokens := bytes.Split(toks[:min(len(toks), 512)], []byte{'\n'})
		strs := make([]string, len(tokens))
		for i, tok := range tokens {
			strs[i] = string(tok)
		}
		b := text.NewDictBuilder()
		for _, term := range bytes.Split(terms[:min(len(terms), 512)], []byte{'\n'}) {
			b.ObserveBytes(term)
		}
		for i := 0; i < len(strs); i += 4 {
			for n := 1; n <= 3 && i+n <= len(strs); n++ {
				b.Observe(strings.Join(strs[i:i+n], " "))
			}
		}
		d := b.Build(0)
		w := make([]float32, d.Size())
		for i := range w {
			w[i] = float32(1-2*(i&1)) / float32(i+3)
		}
		cfg := text.WordNgramConfig{MaxN: int(uint(maxN) % 10), Dict: d}

		var s text.WordNgramStream
		s.Configure(&cfg)
		sum := float32(0.1)
		for _, tok := range tokens {
			sum = s.Sum(tok, w, sum)
		}
		s.Reset()
		push, ixs := float32(0.1), []int32(nil)
		for _, tok := range tokens {
			s.Push(tok, func(ix int32) { push += w[ix]; ixs = append(ixs, ix) })
		}
		if ref := joinedSum(&cfg, strs, w, 0.1); math.Float32bits(sum) != math.Float32bits(push) || math.Float32bits(sum) != math.Float32bits(ref) {
			t.Fatalf("MaxN %d, tokens %q: Sum %v, Push %v %v, joined reference %v", cfg.MaxN, strs, sum, push, ixs, ref)
		}
		var want []int32
		cfg.ExtractTokens(strs, nil, func(ix int32) { want = append(want, ix) })
		slices.Sort(ixs)
		slices.Sort(want)
		if !slices.Equal(ixs, want) {
			t.Fatalf("MaxN %d, tokens %q: Push emits %v, ExtractTokens %v", cfg.MaxN, strs, ixs, want)
		}
	})
}

// TestExtractTokensHugeMaxN: the oracle's word n-grams count n only up
// to the dictionary's longest term, in parts. On every BuildSA word
// dictionary, MaxN 10^9 emits what MaxN = Parts() does over corpus,
// held-out and random documents and over 1,000-token ones, and no gram
// it joins is longer than the document's Parts() longest tokens joined:
// the scratch handed in with exactly that capacity is never regrown.
func TestExtractTokensHugeMaxN(t *testing.T) {
	sc := workload.SmallScale()
	set, err := workload.BuildSA(sc)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	docs := wordDocs(rng, sc, set)
	corpus := slices.Concat(docs[:300]...)
	for i := 0; i < 4; i++ {
		doc := make([]string, 1000)
		for k := range doc {
			doc[k] = corpus[rng.Intn(len(corpus))]
		}
		docs = append(docs, doc)
	}
	for _, d := range set.WordDicts {
		huge := text.WordNgramConfig{MaxN: 1_000_000_000, Dict: d}
		exact := text.WordNgramConfig{MaxN: d.Parts(), Dict: d}
		for _, doc := range docs {
			lens := make([]int, len(doc))
			for i, tok := range doc {
				lens[i] = len(tok)
			}
			slices.Sort(lens)
			bound := max(d.Parts()-1, 0)
			for _, l := range lens[max(len(lens)-d.Parts(), 0):] {
				bound += l
			}
			var got, want []int32
			scratch := huge.ExtractTokens(doc, make([]byte, 0, bound), func(ix int32) { got = append(got, ix) })
			exact.ExtractTokens(doc, nil, func(ix int32) { want = append(want, ix) })
			if !slices.Equal(got, want) {
				t.Fatalf("%d tokens: MaxN 10^9 emits %d indices, MaxN %d emits %d", len(doc), len(got), d.Parts(), len(want))
			}
			if cap(scratch) != bound {
				t.Fatalf("%d tokens: a join outgrew %d bytes, the %d longest tokens joined", len(doc), bound, d.Parts())
			}
		}
	}
}
