package text

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("This is a NICE product!!", nil)
	want := []string{"this", "is", "a", "nice", "product"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeEdge(t *testing.T) {
	if got := Tokenize("", nil); len(got) != 0 {
		t.Fatalf("empty: %v", got)
	}
	if got := Tokenize("...!!!", nil); len(got) != 0 {
		t.Fatalf("punct only: %v", got)
	}
	if got := Tokenize("don't stop", nil); !reflect.DeepEqual(got, []string{"don't", "stop"}) {
		t.Fatalf("apostrophe: %v", got)
	}
	long := strings.Repeat("A", 100) // exceeds stack buffer
	if got := Tokenize(long, nil); got[0] != strings.ToLower(long) {
		t.Fatal("long token lowercasing")
	}
}

func TestTokenizeFuncMatchesTokenize(t *testing.T) {
	f := func(s string) bool {
		want := Tokenize(s, nil)
		var got []string
		buf := make([]byte, 0, 8)
		buf = TokenizeFunc(s, buf, func(tok []byte) {
			got = append(got, string(tok))
		})
		_ = buf
		if len(want) != len(got) {
			return false
		}
		for i := range want {
			if want[i] != got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDictBasics(t *testing.T) {
	d := NewDict()
	if d.Size() != 0 {
		t.Fatal("new dict not empty")
	}
	i1 := d.Add("foo")
	i2 := d.Add("bar")
	if i1 == i2 {
		t.Fatal("duplicate indices")
	}
	if d.Add("foo") != i1 {
		t.Fatal("re-add changed index")
	}
	if d.Lookup("foo") != i1 || d.Lookup("zzz") != -1 {
		t.Fatal("lookup")
	}
	if d.LookupBytes([]byte("bar")) != i2 || d.LookupBytes([]byte("q")) != -1 {
		t.Fatal("lookup bytes")
	}
	if d.MemBytes() <= 0 {
		t.Fatal("membytes")
	}
}

// content returns the dictionary's canonical serialized bytes — what
// the Object Store's content digest, its identity, hashes.
func content(t *testing.T, d *Dict) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := d.WriteContent(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestDictChecksumOrderIndependent: the content bytes identify a
// dictionary independently of map iteration order.
func TestDictChecksumOrderIndependent(t *testing.T) {
	a := NewDict()
	a.Add("x")
	a.Add("y")
	a.Add("z")
	b := NewDict()
	b.Add("x")
	b.Add("y")
	b.Add("z")
	if !bytes.Equal(content(t, a), content(t, b)) {
		t.Fatal("identical dicts must have the same content")
	}
	c := NewDict()
	c.Add("x")
	c.Add("z") // different index assignment
	c.Add("y")
	if bytes.Equal(content(t, a), content(t, c)) {
		t.Fatal("different index assignment should change the content")
	}
	if bytes.Equal(content(t, NewDict()), content(t, a)) {
		t.Fatal("empty vs nonempty content collision")
	}
}

func TestDictRoundTrip(t *testing.T) {
	d := NewDict()
	for _, term := range []string{"alpha", "beta", "gamma delta", "", "ü"} {
		d.Add(term)
	}
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDict(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != d.Size() {
		t.Fatalf("size %d != %d", got.Size(), d.Size())
	}
	for ix := int32(0); int(ix) < d.Size(); ix++ {
		term := d.Term(ix)
		if got.Lookup(term) != ix {
			t.Fatalf("term %q: %d != %d", term, got.Lookup(term), ix)
		}
	}
	if !bytes.Equal(content(t, got), content(t, d)) {
		t.Fatal("content changed over round trip")
	}
}

func TestReadDictErrors(t *testing.T) {
	if _, err := ReadDict(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input should error")
	}
	// Implausible count.
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	if _, err := ReadDict(&buf); err == nil {
		t.Fatal("implausible size should error")
	}
	// Truncated term.
	buf.Reset()
	buf.Write([]byte{1, 0, 0, 0, 0, 0, 0, 0})
	buf.Write([]byte{5, 0, 0, 0})
	buf.WriteString("ab")
	if _, err := ReadDict(&buf); err == nil {
		t.Fatal("truncated term should error")
	}
}

func TestDictBuilder(t *testing.T) {
	b := NewDictBuilder()
	for i := 0; i < 5; i++ {
		b.Observe("common")
	}
	for i := 0; i < 3; i++ {
		b.Observe("mid")
	}
	b.Observe("rare")
	d := b.Build(2)
	if d.Size() != 2 {
		t.Fatalf("size %d", d.Size())
	}
	if d.Lookup("common") != 0 || d.Lookup("mid") != 1 || d.Lookup("rare") != -1 {
		t.Fatalf("frequency ordering: %q %q", d.Term(0), d.Term(1))
	}
}

func TestDictBuilderDeterministicTies(t *testing.T) {
	build := func(order []string) *Dict {
		b := NewDictBuilder()
		for _, s := range order {
			b.Observe(s)
		}
		return b.Build(0)
	}
	d1 := build([]string{"b", "a", "c"})
	d2 := build([]string{"c", "b", "a"})
	if !bytes.Equal(content(t, d1), content(t, d2)) {
		t.Fatal("tie-broken builds must be deterministic")
	}
}

func TestDictBuilderObserveBytes(t *testing.T) {
	b := NewDictBuilder()
	buf := []byte("xyz")
	b.ObserveBytes(buf)
	buf[0] = 'q' // builder must have copied the key
	b.ObserveBytes([]byte("xyz"))
	d := b.Build(0)
	if d.Lookup("xyz") < 0 {
		t.Fatal("observed term missing (key not copied?)")
	}
	if b.counts["xyz"] != 2 {
		t.Fatalf("count = %d, want 2", b.counts["xyz"])
	}
}

func TestCharNgramExtract(t *testing.T) {
	d := NewDict()
	d.Add("ab")
	d.Add("bc")
	d.Add("abc")
	cfg := &CharNgramConfig{MinN: 2, MaxN: 3, Dict: d}
	var got []int32
	cfg.ExtractTokens([]string{"abc"}, func(ix int32) { got = append(got, ix) })
	want := []int32{0, 1, 2} // ab, bc, abc
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	// Byte-token path must agree.
	var got2 []int32
	cfg.ExtractToken([]byte("abc"), func(ix int32) { got2 = append(got2, ix) })
	if !reflect.DeepEqual(got, got2) {
		t.Fatalf("string vs bytes path: %v vs %v", got, got2)
	}
}

func TestCharNgramShortToken(t *testing.T) {
	d := NewDict()
	d.Add("ab")
	cfg := &CharNgramConfig{MinN: 2, MaxN: 4, Dict: d}
	count := 0
	cfg.ExtractTokens([]string{"a"}, func(int32) { count++ })
	if count != 0 {
		t.Fatal("token shorter than MinN must emit nothing")
	}
}

func TestWordNgramExtract(t *testing.T) {
	d := NewDict()
	d.Add("nice")
	d.Add("nice product")
	d.Add("product")
	cfg := &WordNgramConfig{MaxN: 2, Dict: d}
	var got []int32
	cfg.ExtractTokens([]string{"a", "nice", "product"}, nil, func(ix int32) { got = append(got, ix) })
	want := []int32{0, 1, 2} // nice, "nice product", product
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestWordNgramStreamMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vocab := []string{"a", "b", "c", "d", "e"}
	// Dictionary over random 1..3-grams.
	b := NewDictBuilder()
	var docs [][]string
	for i := 0; i < 30; i++ {
		doc := make([]string, rng.Intn(12))
		for j := range doc {
			doc[j] = vocab[rng.Intn(len(vocab))]
		}
		docs = append(docs, doc)
		ObserveWordNgrams(b, doc, 3, nil)
	}
	cfg := &WordNgramConfig{MaxN: 3, Dict: b.Build(0)}
	for _, doc := range docs {
		var batch []int32
		cfg.ExtractTokens(doc, nil, func(ix int32) { batch = append(batch, ix) })
		var stream WordNgramStream
		stream.Configure(cfg)
		var got []int32
		for _, tok := range doc {
			stream.Push([]byte(tok), func(ix int32) { got = append(got, ix) })
		}
		// The orders differ (batch iterates n per position; stream emits all
		// grams ending at each token), so compare as multisets.
		if !sameMultiset(batch, got) {
			t.Fatalf("doc %v: batch %v stream %v", doc, batch, got)
		}
	}
}

func sameMultiset(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[int32]int{}
	for _, x := range a {
		m[x]++
	}
	for _, x := range b {
		m[x]--
		if m[x] < 0 {
			return false
		}
	}
	return true
}

func TestWordNgramStreamReset(t *testing.T) {
	d := NewDict()
	d.Add("a b")
	cfg := &WordNgramConfig{MaxN: 2, Dict: d}
	var s WordNgramStream
	s.Configure(cfg)
	count := 0
	s.Push([]byte("a"), func(int32) { count++ })
	s.Push([]byte("b"), func(int32) { count++ })
	if count != 1 {
		t.Fatalf("expected 1 bigram, got %d", count)
	}
	s.Reset()
	count = 0
	s.Push([]byte("b"), func(int32) { count++ })
	if count != 0 {
		t.Fatal("Reset did not clear history: bigram 'a b' fired across documents")
	}
}

// TestWordNgramStreamCapsMaxN: MaxN counts only up to the dictionary's
// longest term, in parts, so a MaxN an upload sets to 2^30 keeps as many
// nodes as the terms have parts, and still emits every gram.
func TestWordNgramStreamCapsMaxN(t *testing.T) {
	for _, tc := range []struct {
		terms []string
		nodes int
	}{
		{[]string{"a", "a b"}, 2},
		{[]string{"a", "a b", "a b a"}, 3},
		{[]string{"a b a b", "b a"}, 4},
	} {
		d := NewDict()
		for _, term := range tc.terms {
			d.Add(term)
		}
		cfg := &WordNgramConfig{MaxN: 1 << 30, Dict: d}
		var s WordNgramStream
		s.Configure(cfg)
		if len(s.nodes) != tc.nodes || cap(s.nodes) != tc.nodes {
			t.Fatalf("terms %q: %d nodes (cap %d), want %d", tc.terms, len(s.nodes), cap(s.nodes), tc.nodes)
		}
		var got []int32
		for _, tok := range []string{"a", "b", "a", "b"} {
			s.Push([]byte(tok), func(ix int32) { got = append(got, ix) })
		}
		var want []int32
		cfg.ExtractTokens([]string{"a", "b", "a", "b"}, nil, func(ix int32) { want = append(want, ix) })
		if !sameMultiset(got, want) {
			t.Fatalf("terms %q: stream %v, ExtractTokens %v", tc.terms, got, want)
		}
	}
}

func TestObserveCharNgrams(t *testing.T) {
	b := NewDictBuilder()
	ObserveCharNgrams(b, []byte("abc"), 2, 3)
	d := b.Build(0)
	for _, g := range []string{"ab", "bc", "abc"} {
		if d.Lookup(g) < 0 {
			t.Fatalf("missing gram %q", g)
		}
	}
	if d.Size() != 3 {
		t.Fatalf("size %d", d.Size())
	}
}

func TestHashNgram(t *testing.T) {
	word := &HashNgramConfig{Bits: 8, Word: true}
	if word.Dim() != 256 {
		t.Fatal("dim")
	}
	var a, b []int32
	word.HashToken([]byte("hello"), func(ix int32) { a = append(a, ix) })
	word.HashToken([]byte("hello"), func(ix int32) { b = append(b, ix) })
	if !reflect.DeepEqual(a, b) {
		t.Fatal("hashing must be deterministic")
	}
	if len(a) != 1 || a[0] < 0 || a[0] >= 256 {
		t.Fatalf("bucket out of range: %v", a)
	}
	ch := &HashNgramConfig{Bits: 6, MaxN: 3}
	var got []int32
	ch.HashToken([]byte("abcd"), func(ix int32) { got = append(got, ix) })
	// 3 bigrams + 2 trigrams = 5 grams
	if len(got) != 5 {
		t.Fatalf("char gram count = %d, want 5", len(got))
	}
	for _, ix := range got {
		if ix < 0 || ix >= 64 {
			t.Fatalf("bucket out of range: %d", ix)
		}
	}
}

func TestTokenizeZeroAlloc(t *testing.T) {
	s := "the quick brown fox jumps over the lazy dog"
	buf := make([]byte, 0, 32)
	n := testing.AllocsPerRun(100, func() {
		buf = TokenizeFunc(s, buf, func(tok []byte) {})
	})
	if n > 0 {
		t.Fatalf("TokenizeFunc allocates %v per run", n)
	}
}

func TestCharNgramZeroAlloc(t *testing.T) {
	b := NewDictBuilder()
	ObserveCharNgrams(b, []byte("product"), 2, 3)
	cfg := &CharNgramConfig{MinN: 2, MaxN: 3, Dict: b.Build(0)}
	tok := []byte("product")
	sink := int32(0)
	n := testing.AllocsPerRun(100, func() {
		cfg.ExtractToken(tok, func(ix int32) { sink += ix })
	})
	if n > 0 {
		t.Fatalf("ExtractToken allocates %v per run", n)
	}
}

func BenchmarkTokenize(b *testing.B) {
	s := strings.Repeat("This product is really Nice and Worth buying. ", 10)
	b.ReportAllocs()
	var dst []string
	for i := 0; i < b.N; i++ {
		dst = Tokenize(s, dst[:0])
	}
}

func BenchmarkTokenizeFunc(b *testing.B) {
	s := strings.Repeat("This product is really Nice and Worth buying. ", 10)
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = TokenizeFunc(s, buf, func(tok []byte) {})
	}
}
