package text

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// randomTerm draws a term of 0-12 bytes: ASCII letters, the bytes 0x00
// and 0xFF, and pieces of multi-byte UTF-8, so the 7/8-byte key boundary,
// the empty term and non-ASCII text all come up.
func randomTerm(rng *rand.Rand) string {
	pieces := []string{"a", "b", "z", "\x00", "\xff", "é", "日", " "}
	var b strings.Builder
	n := rng.Intn(13)
	for b.Len() < n {
		b.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return b.String()
}

// TestDictMatchesMap checks Add, Lookup, LookupBytes and Term against a
// Go map across table growth, then a WriteTo/ReadDict round trip.
func TestDictMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d, ref := NewDict(), map[string]int32{}
	check := func(term string) {
		t.Helper()
		want, ok := ref[term]
		if !ok {
			want = -1
		}
		if got := d.Lookup(term); got != want {
			t.Fatalf("Lookup(%q) = %d, want %d", term, got, want)
		}
		if got := d.LookupBytes([]byte(term)); got != want {
			t.Fatalf("LookupBytes(%q) = %d, want %d", term, got, want)
		}
	}
	for i := 0; i < 20000; i++ {
		term := randomTerm(rng)
		check(term)
		ix := d.Add(term)
		if want, ok := ref[term]; ok && ix != want {
			t.Fatalf("re-Add(%q) = %d, want %d", term, ix, want)
		}
		if _, ok := ref[term]; !ok {
			if int(ix) != len(ref) {
				t.Fatalf("Add(%q) = %d, want %d", term, ix, len(ref))
			}
			ref[term] = ix
		}
		check(randomTerm(rng))
	}
	if d.Size() != len(ref) {
		t.Fatalf("Size = %d, want %d", d.Size(), len(ref))
	}
	for term, ix := range ref {
		if d.Term(ix) != term {
			t.Fatalf("Term(%d) = %q, want %q", ix, d.Term(ix), term)
		}
	}
	b := content(t, d)
	got, err := ReadDict(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(content(t, got), b) {
		t.Fatal("ReadDict(WriteTo(d)) is not byte-identical")
	}
	for term, ix := range ref {
		if got.Lookup(term) != ix {
			t.Fatalf("read back: Lookup(%q) = %d, want %d", term, got.Lookup(term), ix)
		}
	}
}

// TestDictHashCollision forces two long terms onto one key: each must
// still find its own index, because a key match on a long term is
// verified against the arena.
func TestDictHashCollision(t *testing.T) {
	d := NewDict()
	a, b := "collision-one", "collision-two"
	k := stringKey(a)
	for _, term := range []string{a, b} {
		d.arena = append(d.arena, term...)
		d.push(d.free(k), k)
	}
	if got := find(d, a, k); got != 0 {
		t.Fatalf("find(%q) = %d, want 0", a, got)
	}
	if got := find(d, []byte(b), k); got != 1 {
		t.Fatalf("find(%q) = %d, want 1", b, got)
	}
	if got := find(d, "collision-six", k); got != -1 {
		t.Fatalf("find(absent) = %d, want -1", got)
	}
}

// dictBytes serializes terms in the WriteTo format, without deduplicating.
func dictBytes(terms ...string) []byte {
	b := binary.LittleEndian.AppendUint64(nil, uint64(len(terms)))
	for _, term := range terms {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(term)))
		b = append(b, term...)
	}
	return b
}

// TestReadDictRejectsDuplicates: a repeated term would leave Size below
// the header count and an index past Size, so it is an import error.
func TestReadDictRejectsDuplicates(t *testing.T) {
	for _, terms := range [][]string{
		{"ab", "cd", "ab"},
		{"", "x", ""},
		{"a long repeated term", "b", "a long repeated term"},
	} {
		_, err := ReadDict(bytes.NewReader(dictBytes(terms...)))
		if err == nil || !strings.Contains(err.Error(), "duplicate term") {
			t.Fatalf("%q: err = %v, want a duplicate-term error", terms, err)
		}
	}
}

// TestReadDictHeaderDoesNotAllocate: the header's count is untrusted. A
// header claiming 2^20 terms followed by EOF, and one claiming 2^28 terms
// over 4 MiB of zeros (one empty term, then a duplicate), must fail
// having allocated in proportion to the terms parsed, not to the count
// or to the input's length.
func TestReadDictHeaderDoesNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		raw     []byte
		wantErr string
	}{
		{binary.LittleEndian.AppendUint64(nil, 1<<20), "EOF"},
		{append(binary.LittleEndian.AppendUint64(nil, 1<<28), make([]byte, 4<<20)...), "duplicate term"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadDict(bytes.NewReader(tc.raw))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%d bytes: err = %v, want %q", len(tc.raw), err, tc.wantErr)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 256<<10 {
			t.Fatalf("%d bytes: failing allocated %d bytes", len(tc.raw), n)
		}
	}
}

// TestReadDictTrailingBytesNotKept: one term followed by 8 MiB of other
// bytes is accepted (the dictionary ends where its count says), but
// keeps only what the one term needs.
func TestReadDictTrailingBytesNotKept(t *testing.T) {
	raw := append(dictBytes("only"), make([]byte, 8<<20)...)
	d, err := ReadDict(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != 1 || d.Term(0) != "only" {
		t.Fatalf("read %d terms", d.Size())
	}
	if m := d.MemBytes(); m > 1<<10 {
		t.Fatalf("a one-term dictionary holds %d bytes", m)
	}
}

// TestDictMemBytesIsHeap: MemBytes of a 60k-term dictionary loaded by
// ReadDict is within 10% of the heap it actually holds.
func TestDictMemBytesIsHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := NewDict()
	for src.Size() < 60000 {
		b := make([]byte, 2+rng.Intn(4))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		src.Add(string(b))
	}
	raw := content(t, src)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d, err := ReadDict(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	mem := int64(d.MemBytes())
	t.Logf("MemBytes = %d, heap delta = %d", mem, heap)
	if diff := mem - heap; diff > heap/10 || -diff > heap/10 {
		t.Fatalf("MemBytes = %d, heap delta = %d", mem, heap)
	}
	runtime.KeepAlive(raw)
}

// TestDictLookupZeroAlloc: lookups of short and long terms, by string
// and by bytes, allocate nothing.
func TestDictLookupZeroAlloc(t *testing.T) {
	d := NewDict()
	for _, term := range []string{"ab", "abcdefg", "abcdefgh", "a much longer term"} {
		d.Add(term)
	}
	short, long := []byte("abcdefg"), []byte("a much longer term")
	sink := int32(0)
	n := testing.AllocsPerRun(100, func() {
		sink += d.LookupBytes(short) + d.LookupBytes(long)
		sink += d.Lookup("abcdefgh") + d.Lookup("absent term")
	})
	if n > 0 {
		t.Fatalf("lookups allocate %v per run", n)
	}
}

// FuzzReadDict: ReadDict never panics, allocates in proportion to its
// input (beyond a fixed start of at most 4096 terms), and what it accepts
// it writes back byte for byte, with every term looking up to its own
// index.
func FuzzReadDict(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, err := ReadDict(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 256<<10+32*uint64(len(data)) {
			t.Fatalf("%d input bytes allocated %d bytes", len(data), n)
		}
		if err != nil {
			return
		}
		if out := content(t, d); !bytes.HasPrefix(data, out) {
			t.Fatalf("WriteTo wrote %d bytes that are not the %d consumed", len(out), len(data))
		}
		for ix := int32(0); int(ix) < d.Size(); ix++ {
			if got := d.Lookup(d.Term(ix)); got != ix {
				t.Fatalf("Lookup(Term(%d)) = %d", ix, got)
			}
		}
	})
}
