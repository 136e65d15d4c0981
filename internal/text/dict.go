package text

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
)

// Dict maps n-gram terms to feature indices. Dictionaries are the large
// shared parameters of the SA workload (~1M entries, tens of MB; Table 1),
// and are exactly the objects the PRETZEL Object Store deduplicates
// between pipelines.
type Dict struct {
	Terms map[string]int32
}

// NewDict returns an empty dictionary.
func NewDict() *Dict { return &Dict{Terms: make(map[string]int32)} }

// Size returns the number of terms.
func (d *Dict) Size() int { return len(d.Terms) }

// Add inserts term if absent and returns its index.
func (d *Dict) Add(term string) int32 {
	if ix, ok := d.Terms[term]; ok {
		return ix
	}
	ix := int32(len(d.Terms))
	d.Terms[term] = ix
	return ix
}

// Lookup returns the index of term, or -1.
func (d *Dict) Lookup(term string) int32 {
	if ix, ok := d.Terms[term]; ok {
		return ix
	}
	return -1
}

// LookupBytes is Lookup for a byte-slice key. The string conversion inside
// the map index expression does not allocate.
func (d *Dict) LookupBytes(term []byte) int32 {
	if ix, ok := d.Terms[string(term)]; ok {
		return ix
	}
	return -1
}

// MemBytes estimates the retained heap size of the dictionary: per-entry
// map overhead plus key bytes. Used by the memory experiments.
func (d *Dict) MemBytes() int {
	n := 48 // map header
	for t := range d.Terms {
		n += len(t) + 16 + 32 // string bytes + header + bucket share
	}
	return n
}

// WriteContent implements ops.Param: the canonical serialized bytes the
// Object Store's collision-safe content address is computed over
// (WriteTo is index-ordered, hence deterministic for equal content).
func (d *Dict) WriteContent(w io.Writer) error {
	_, err := d.WriteTo(w)
	return err
}

// WriteTo serializes the dictionary (sorted by index for determinism).
func (d *Dict) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	terms := make([]string, len(d.Terms))
	for t, ix := range d.Terms {
		if int(ix) >= len(terms) || ix < 0 {
			return 0, fmt.Errorf("dict: index %d out of range %d", ix, len(terms))
		}
		terms[ix] = t
	}
	var n int64
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(terms)))
	k, err := bw.Write(hdr[:])
	n += int64(k)
	if err != nil {
		return n, err
	}
	var lb [4]byte
	for _, t := range terms {
		binary.LittleEndian.PutUint32(lb[:], uint32(len(t)))
		k, err = bw.Write(lb[:])
		n += int64(k)
		if err != nil {
			return n, err
		}
		k, err = bw.WriteString(t)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadDict deserializes a dictionary written by WriteTo.
func ReadDict(r io.Reader) (*Dict, error) {
	br := bufio.NewReader(r)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("dict: header: %w", err)
	}
	n := binary.LittleEndian.Uint64(hdr[:])
	if n > 1<<28 {
		return nil, fmt.Errorf("dict: implausible size %d", n)
	}
	d := &Dict{Terms: make(map[string]int32, n)}
	var lb [4]byte
	buf := make([]byte, 0, 64)
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(br, lb[:]); err != nil {
			return nil, fmt.Errorf("dict: term %d len: %w", i, err)
		}
		l := binary.LittleEndian.Uint32(lb[:])
		if l > 1<<20 {
			return nil, fmt.Errorf("dict: implausible term length %d", l)
		}
		if cap(buf) < int(l) {
			buf = make([]byte, l)
		}
		b := buf[:l]
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, fmt.Errorf("dict: term %d: %w", i, err)
		}
		d.Terms[string(b)] = int32(i)
	}
	return d, nil
}

// termCount is used during dictionary building.
type termCount struct {
	term  string
	count int
}

// DictBuilder accumulates term frequencies from a training corpus and
// produces a Dict of the most frequent maxTerms terms — the way ML.Net's
// NgramExtractor builds its vocabulary during training.
type DictBuilder struct {
	counts map[string]int
}

// NewDictBuilder returns an empty builder.
func NewDictBuilder() *DictBuilder { return &DictBuilder{counts: make(map[string]int)} }

// Observe counts one occurrence of term.
func (b *DictBuilder) Observe(term string) { b.counts[term]++ }

// ObserveBytes counts one occurrence of a byte-slice term.
func (b *DictBuilder) ObserveBytes(term []byte) {
	// The compiler cannot elide this allocation when the key may be
	// inserted, so copy explicitly only on first sight.
	if _, ok := b.counts[string(term)]; ok {
		b.counts[string(term)]++
		return
	}
	b.counts[string(append([]byte(nil), term...))] = 1
}

// Build returns a dictionary of the maxTerms most frequent terms, with
// indices assigned in frequency order (ties broken lexicographically, so
// identical corpora always produce identical dictionaries — a requirement
// for Object Store dedup to fire across pipelines).
func (b *DictBuilder) Build(maxTerms int) *Dict {
	tcs := make([]termCount, 0, len(b.counts))
	for t, c := range b.counts {
		tcs = append(tcs, termCount{t, c})
	}
	sort.Slice(tcs, func(i, j int) bool {
		if tcs[i].count != tcs[j].count {
			return tcs[i].count > tcs[j].count
		}
		return tcs[i].term < tcs[j].term
	})
	if maxTerms > 0 && len(tcs) > maxTerms {
		tcs = tcs[:maxTerms]
	}
	d := NewDict()
	for _, tc := range tcs {
		d.Add(tc.term)
	}
	return d
}
