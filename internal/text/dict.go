package text

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"math/bits"
	"slices"
	"sort"
	"unsafe"
)

// Dict maps n-gram terms to feature indices. Dictionaries are the large
// shared parameters of the SA workload (~1M entries, tens of MB; Table 1),
// and are exactly the objects the PRETZEL Object Store deduplicates
// between pipelines.
//
// A Dict is flat and pointer-free: the garbage collector never scans it,
// and its size is known without a walk. The terms sit in one arena in
// index order, and an open-addressed table (power-of-two slot count, load
// at most ½, multiply-shift hashing, linear probing) maps a term's key to
// its index. A term of at most 7 bytes is its own key: its bytes packed
// little-endian, with its length in the top byte. A longer term is keyed
// by a 56-bit maphash value tagged 0xFF in the top byte, and a key match
// is verified against the arena. The hash only picks where a probe
// starts; a term's identity is its bytes.
type Dict struct {
	arena []byte   // the terms, in index order
	offs  []uint32 // term i is arena[offs[i]:offs[i+1]]; len Size()+1
	keys  []uint64 // slot keys
	vals  []int32  // slot term index + 1; 0 marks an empty slot
	shift uint     // 64 - log2(len(keys))
}

const (
	minSlots = 16
	longTag  = 0xFF << 56
	hashMul  = 0x9E3779B97F4A7C15 // 2^64 / golden ratio
)

// seed keys the hashes of long terms. It is per process and never leaves
// it: neither a digest nor an exported byte depends on it.
var seed = maphash.MakeSeed()

// NewDict returns an empty dictionary.
func NewDict() *Dict { return newDict(0, 0) }

// newDict returns an empty dictionary with room for terms terms of
// arenaBytes bytes in total.
func newDict(terms, arenaBytes int) *Dict {
	slots := minSlots
	for slots < 2*terms {
		slots <<= 1
	}
	d := &Dict{arena: make([]byte, 0, arenaBytes), offs: make([]uint32, 1, terms+1)}
	d.setTable(slots)
	return d
}

func (d *Dict) setTable(slots int) {
	d.keys, d.vals = make([]uint64, slots), make([]int32, slots)
	d.shift = uint(64 - bits.TrailingZeros(uint(slots)))
}

// shortKey is the key of a term of at most 7 bytes: the term itself.
func shortKey[T string | []byte](t T) uint64 {
	k := uint64(len(t)) << 56
	for i := 0; i < len(t); i++ {
		k |= uint64(t[i]) << (8 * i)
	}
	return k
}

func stringKey(t string) uint64 {
	if len(t) < 8 {
		return shortKey(t)
	}
	return longTag | maphash.String(seed, t)>>8
}

func bytesKey(t []byte) uint64 {
	if len(t) < 8 {
		return shortKey(t)
	}
	return longTag | maphash.Bytes(seed, t)>>8
}

// probe returns the slot that holds term t, whose key is k, or else the
// empty slot where t would go.
func probe[T string | []byte](d *Dict, t T, k uint64) uint64 {
	mask := uint64(len(d.keys) - 1)
	for i := (k * hashMul) >> d.shift; ; i = (i + 1) & mask {
		v := d.vals[i]
		if v == 0 || d.keys[i] == k && (len(t) < 8 || string(d.term(v-1)) == string(t)) {
			return i
		}
	}
}

// find returns the index of term t, whose key is k, or -1.
func find[T string | []byte](d *Dict, t T, k uint64) int32 {
	return d.vals[probe(d, t, k)] - 1
}

// free returns the first empty slot of k's probe sequence.
func (d *Dict) free(k uint64) uint64 {
	mask := uint64(len(d.keys) - 1)
	i := (k * hashMul) >> d.shift
	for d.vals[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// push indexes the term that ends the arena under key k in the empty slot
// i and returns its index. If the load would pass ½, it doubles the table
// first and finds the term a new slot.
func (d *Dict) push(i, k uint64) int32 {
	d.offs = append(d.offs, uint32(len(d.arena)))
	n := len(d.offs) - 1
	if 2*n > len(d.keys) {
		keys, vals := d.keys, d.vals
		d.setTable(2 * len(keys))
		for j, v := range vals {
			if v != 0 {
				f := d.free(keys[j])
				d.keys[f], d.vals[f] = keys[j], v
			}
		}
		i = d.free(k)
	}
	d.keys[i], d.vals[i] = k, int32(n)
	return int32(n - 1)
}

func (d *Dict) term(ix int32) []byte { return d.arena[d.offs[ix]:d.offs[ix+1]] }

// Size returns the number of terms.
func (d *Dict) Size() int { return len(d.offs) - 1 }

// Term returns the term at index ix.
func (d *Dict) Term(ix int32) string { return string(d.term(ix)) }

// Add inserts term if absent and returns its index.
func (d *Dict) Add(term string) int32 {
	k := stringKey(term)
	i := probe(d, term, k)
	if v := d.vals[i]; v != 0 {
		return v - 1
	}
	if uint64(len(d.arena))+uint64(len(term)) > math.MaxUint32 {
		panic("text: dictionary arena past 4 GiB")
	}
	d.arena = append(d.arena, term...)
	return d.push(i, k)
}

// Lookup returns the index of term, or -1.
func (d *Dict) Lookup(term string) int32 { return find(d, term, stringKey(term)) }

// LookupBytes is Lookup for a byte-slice key.
func (d *Dict) LookupBytes(term []byte) int32 { return find(d, term, bytesKey(term)) }

// MemBytes returns the bytes the dictionary holds: its header and the
// capacity of its four arrays. It is exact and O(1), so residency
// accounting can call it under a lock.
func (d *Dict) MemBytes() int {
	return int(unsafe.Sizeof(*d)) + cap(d.arena) + 4*cap(d.offs) + 8*cap(d.keys) + 4*cap(d.vals)
}

// WriteContent implements ops.Param: the canonical serialized bytes the
// Object Store's collision-safe content address is computed over
// (WriteTo is index-ordered, hence deterministic for equal content).
func (d *Dict) WriteContent(w io.Writer) error {
	_, err := d.WriteTo(w)
	return err
}

// WriteTo serializes the dictionary: a little-endian u64 term count, then
// each term in index order as a u32 length and its bytes.
func (d *Dict) WriteTo(w io.Writer) (int64, error) {
	buf := binary.LittleEndian.AppendUint64(make([]byte, 0, 8<<10), uint64(d.Size()))
	var n int64
	for ix := int32(0); int(ix) < d.Size(); ix++ {
		t := d.term(ix)
		if len(buf)+4+len(t) > cap(buf) {
			k, err := w.Write(buf)
			n += int64(k)
			if err != nil {
				return n, err
			}
			buf = buf[:0]
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t)))
		buf = append(buf, t...)
	}
	k, err := w.Write(buf)
	return n + int64(k), err
}

// ReadDict deserializes a dictionary written by WriteTo. The input is
// untrusted: a term may not repeat an earlier one, and memory follows the
// terms that actually arrive, never the count the header claims. The
// tables start with room for at most 4096 terms and double as terms are
// read; the arena and offsets are trimmed to their length at the end.
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
	c := int(min(n, 4096))
	d := newDict(c, 8*c)
	var lb [4]byte
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(br, lb[:]); err != nil {
			return nil, fmt.Errorf("dict: term %d len: %w", i, err)
		}
		l := binary.LittleEndian.Uint32(lb[:])
		if l > 1<<20 || uint64(len(d.arena))+uint64(l) > math.MaxUint32 {
			return nil, fmt.Errorf("dict: implausible term length %d", l)
		}
		start := len(d.arena)
		if err := d.readTerm(br, int(l)); err != nil {
			return nil, fmt.Errorf("dict: term %d: %w", i, err)
		}
		t := d.arena[start:]
		k := bytesKey(t)
		slot := probe(d, t, k)
		if v := d.vals[slot]; v != 0 {
			return nil, fmt.Errorf("dict: duplicate term %d repeats term %d", i, v-1)
		}
		d.push(slot, k)
	}
	d.arena, d.offs = slices.Clone(d.arena), slices.Clone(d.offs)
	return d, nil
}

// readTerm appends the next l bytes of r to the arena, at most 4 KiB at a
// time, so the arena grows only with bytes that have arrived.
func (d *Dict) readTerm(r io.Reader, l int) error {
	for l > 0 {
		c, start := min(l, 4<<10), len(d.arena)
		d.arena = slices.Grow(d.arena, c)[:start+c]
		if _, err := io.ReadFull(r, d.arena[start:]); err != nil {
			return err
		}
		l -= c
	}
	return nil
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
	size := 0
	for _, tc := range tcs {
		size += len(tc.term)
	}
	d := newDict(len(tcs), size)
	for _, tc := range tcs {
		d.Add(tc.term)
	}
	return d
}
