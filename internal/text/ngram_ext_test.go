package text_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

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
