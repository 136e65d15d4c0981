package text_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"pretzel/internal/dataset"
	"pretzel/internal/text"
	"pretzel/internal/workload"
)

// TestCharNgramSequenceMatchesMap: on the seven char dictionaries of the
// seeded SA workload, ExtractToken emits exactly the index sequence of a
// map-based reference, on 1,000 corpus and random tokens.
func TestCharNgramSequenceMatchesMap(t *testing.T) {
	set, err := workload.BuildSA(workload.SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	var tokens [][]byte
	for _, s := range set.TestInputs {
		for _, tok := range text.Tokenize(s, nil) {
			tokens = append(tokens, []byte(tok))
		}
	}
	rng.Shuffle(len(tokens), func(i, j int) { tokens[i], tokens[j] = tokens[j], tokens[i] })
	tokens = tokens[:500]
	for len(tokens) < 1000 {
		tok := make([]byte, 1+rng.Intn(12))
		for i := range tok {
			tok[i] = "abcdeéz\xff"[rng.Intn(9)]
		}
		tokens = append(tokens, tok)
	}

	// Every gram length any version uses (2-5), so each dictionary is
	// probed with its own grams and with misses of the other lengths.
	const minN, maxN = 2, 5
	if len(set.CharDicts) != 7 {
		t.Fatalf("%d char dictionaries, want 7", len(set.CharDicts))
	}
	for v, d := range set.CharDicts {
		ref := make(map[string]int32, d.Size())
		for ix := int32(0); int(ix) < d.Size(); ix++ {
			ref[d.Term(ix)] = ix
		}
		cfg := text.CharNgramConfig{MinN: minN, MaxN: maxN, Dict: d}
		for _, tok := range tokens {
			var got, want []int32
			cfg.ExtractToken(tok, func(ix int32) { got = append(got, ix) })
			for n := minN; n <= maxN && n <= len(tok); n++ {
				for i := 0; i+n <= len(tok); i++ {
					if ix, ok := ref[string(tok[i:i+n])]; ok {
						want = append(want, ix)
					}
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("char version %d, token %q: got %v, want %v", v, tok, got, want)
			}
		}
	}
}

// benchDicts holds dictionaries built like the benchmark-scale SA ones (a
// 2-5 char dictionary and a unigram+bigram word dictionary, capped at 45k
// and 36k terms), and the tokens of held-out reviews and their grams to
// look up in them.
var benchDicts struct {
	once       sync.Once
	char, word *text.Dict
	tokens     [][]byte
	charGrams  [][]byte
	wordGrams  [][]byte
}

func loadBenchDicts() {
	corpus := dataset.NewReviewCorpus(8000, 2018)
	cb, wb := text.NewDictBuilder(), text.NewDictBuilder()
	var scratch []byte
	for _, doc := range corpus.Generate(2500, 40) {
		toks := text.Tokenize(doc.Text, nil)
		for _, tok := range toks {
			text.ObserveCharNgrams(cb, []byte(tok), 2, 5)
		}
		scratch = text.ObserveWordNgrams(wb, toks, 2, scratch)
	}
	benchDicts.char, benchDicts.word = cb.Build(45000), wb.Build(36000)
	for _, doc := range corpus.Generate(200, 40) {
		toks := text.Tokenize(doc.Text, nil)
		for i, tok := range toks {
			benchDicts.tokens = append(benchDicts.tokens, []byte(tok))
			for n := 2; n <= 5; n++ {
				for j := 0; j+n <= len(tok); j++ {
					benchDicts.charGrams = append(benchDicts.charGrams, []byte(tok[j:j+n]))
				}
			}
			if i > 0 {
				benchDicts.wordGrams = append(benchDicts.wordGrams, []byte(toks[i-1]+" "+tok))
			}
		}
	}
}

var benchSink int32

func BenchmarkDictLookupBytes(b *testing.B) {
	benchDicts.once.Do(loadBenchDicts)
	for _, bc := range []struct {
		name  string
		dict  *text.Dict
		grams [][]byte
	}{
		{"char2-5", benchDicts.char, benchDicts.charGrams},
		{"word-bigram", benchDicts.word, benchDicts.wordGrams},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink int32
			for i := 0; i < b.N; i++ {
				sink += bc.dict.LookupBytes(bc.grams[i%len(bc.grams)])
			}
			benchSink = sink
		})
	}
}

func BenchmarkReadDict(b *testing.B) {
	benchDicts.once.Do(loadBenchDicts)
	var buf bytes.Buffer
	if _, err := benchDicts.char.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := text.ReadDict(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}
