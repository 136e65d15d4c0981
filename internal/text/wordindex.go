package text

import (
	"bytes"
	"math"
	"math/bits"
	"slices"
	"sync"
	"unsafe"
)

// wordIndex is a trie over the parts of a word dictionary's terms, so
// that a word n-gram is one integer probe from the node of the gram one
// token shorter, instead of a join, a hash and a byte comparison (the
// Oven's physical choice for the word side of an SA plan, §4.1.2).
//
// A part of a term is a run of it between spaces; joining tokens with
// spaces gives a term exactly when the tokens, split at their own spaces,
// give the term's parts. A node names a run of parts that begins some
// term. A one-part node is the part's ID: its unigram index when it is a
// term of its own, and size plus its index in side otherwise, so a part
// has an ID exactly when some term has it as a part. A longer node is its
// own term index when the run is a term, and otherwise a number counting
// down from MaxInt32: a node is a term exactly when it is below size. The
// edges sit in one open-addressed table (power-of-two slot count, load at
// most ¾, multiply-shift hashing, linear probing): the child of node p by
// the part whose ID is q is under key (p+1)<<32 | q, so no key is 0,
// which marks an empty slot.
type wordIndex struct {
	side  *Dict    // parts that are no unigram term; nil when there are none
	size  int32    // the Dict's Size(): the first side ID
	keys  []uint64 // slot keys
	vals  []int32  // slot child node
	shift uint     // 64 - log2(len(keys))
}

// buildMu serializes index builds, so that each Dict builds its index
// once. Builds happen once per dictionary and node, at compile time.
var buildMu sync.Mutex

// wordIndex returns the Dict's word index, building it on first use.
func (d *Dict) wordIndex() *wordIndex {
	if x := d.word.Load(); x != nil {
		return x
	}
	buildMu.Lock()
	defer buildMu.Unlock()
	x := d.word.Load()
	if x == nil {
		x = newWordIndex(d)
		d.word.Store(x)
	}
	return x
}

// IndexWords builds the Dict's word index if it has none yet: the Oven
// calls it when it compiles a word n-gram stage, so that the load that
// lifecycle charges for holds the index's bytes (MemBytes counts them)
// and no predict pays for the build.
func (d *Dict) IndexWords() { d.wordIndex() }

// newWordIndex walks every multi-part term down the trie, adding the
// edges it lacks. The table starts with room for one edge per such term,
// which is every edge when each run that begins a term is itself a term
// (as in a dictionary of the most frequent n-grams), and doubles past ¾.
func newWordIndex(d *Dict) *wordIndex {
	x := &wordIndex{size: int32(d.Size())}
	multi := 0
	for ix := int32(0); ix < x.size; ix++ {
		if bytes.IndexByte(d.term(ix), ' ') >= 0 {
			multi++
		}
	}
	x.setTable(multi)
	side := NewDict()
	partID := func(part []byte) int32 {
		if id := d.LookupBytes(part); id >= 0 {
			return id
		}
		return x.size + side.Add(string(part))
	}
	fresh, edges := int32(math.MaxInt32), 0
	for ix := int32(0); ix < x.size; ix++ {
		t := d.term(ix)
		end := bytes.IndexByte(t, ' ')
		if end < 0 {
			continue
		}
		p := partID(t[:end])
		for end < len(t) {
			start := end + 1
			if end = bytes.IndexByte(t[start:], ' '); end < 0 {
				end = len(t)
			} else {
				end += start
			}
			k := edgeKey(p, partID(t[start:end]))
			s := x.slot(k)
			if x.keys[s] == 0 {
				node := ix
				if end < len(t) {
					node = d.LookupBytes(t[:end])
				}
				if node < 0 {
					node, fresh = fresh, fresh-1
				}
				if edges++; 4*edges > 3*len(x.keys) {
					x.grow()
					s = x.slot(k)
				}
				x.keys[s], x.vals[s] = k, node
			}
			p = x.vals[s]
		}
	}
	if int(fresh) < int(x.size)+side.Size() {
		panic("text: word index past 2^31 nodes")
	}
	if side.Size() > 0 {
		side.arena, side.offs = slices.Clone(side.arena), slices.Clone(side.offs)
		x.side = side
	}
	return x
}

// setTable gives the index an empty table with room for edges edges.
func (x *wordIndex) setTable(edges int) {
	slots := 1
	for 4*edges > 3*slots {
		slots <<= 1
	}
	x.keys, x.vals = make([]uint64, slots), make([]int32, slots)
	x.shift = uint(64 - bits.TrailingZeros(uint(slots)))
}

// grow doubles the table, moving every edge into it.
func (x *wordIndex) grow() {
	keys, vals := x.keys, x.vals
	x.keys, x.vals = make([]uint64, 2*len(keys)), make([]int32, 2*len(keys))
	x.shift--
	for j, k := range keys {
		if k != 0 {
			s := x.slot(k)
			x.keys[s], x.vals[s] = k, vals[j]
		}
	}
}

func edgeKey(p, q int32) uint64 { return (uint64(p)+1)<<32 | uint64(q) }

// slot returns the slot that holds key k, or else the empty slot where k
// would go.
func (x *wordIndex) slot(k uint64) uint64 {
	mask := uint64(len(x.keys) - 1)
	s := (k * hashMul) >> x.shift
	for x.keys[s] != 0 && x.keys[s] != k {
		s = (s + 1) & mask
	}
	return s
}

// sideID returns the ID of a part that is no unigram term, or -1.
func (x *wordIndex) sideID(part []byte) int32 {
	if x.side != nil {
		if id := x.side.LookupBytes(part); id >= 0 {
			return x.size + id
		}
	}
	return -1
}

// child returns the child of node p by the part whose ID is q, or -1
// when there is none or either is -1.
func (x *wordIndex) child(p, q int32) int32 {
	if p|q < 0 {
		return -1
	}
	k, mask := edgeKey(p, q), uint64(len(x.keys)-1)
	for s := (k * hashMul) >> x.shift; ; s = (s + 1) & mask {
		switch x.keys[s] {
		case k:
			return x.vals[s]
		case 0:
			return -1
		}
	}
}

// memBytes is the index's share of Dict.MemBytes.
func (x *wordIndex) memBytes() int {
	n := int(unsafe.Sizeof(*x)) + 8*cap(x.keys) + 4*cap(x.vals)
	if x.side != nil {
		n += x.side.MemBytes()
	}
	return n
}
