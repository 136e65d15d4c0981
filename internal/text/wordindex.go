package text

import (
	"bytes"
	"math/bits"
	"slices"
	"sync"
	"unsafe"
)

// wordIndex keys a word dictionary's multi-word terms by tuples of token
// IDs, so that a word n-gram is one integer probe instead of a join, a
// hash and a byte comparison (the Oven's physical choice for the word
// side of an SA plan, §4.1.2).
//
// A part of a term is a run of it between spaces; joining tokens with
// spaces gives a term exactly when the tokens, split at their own spaces,
// give the term's parts. A part's ID is its unigram index when it is a
// term of its own, and size plus its index in side otherwise, so a token
// without a space has an ID exactly when some term has it as a part. The
// 2- and 3-part terms sit in one open-addressed table (power-of-two slot
// count, load at most ¾, multiply-shift hashing, linear probing) keyed
// n<<60 | id₀ | id₁<<20 | id₂<<40; no key is 0, which marks an empty slot.
type wordIndex struct {
	side    *Dict    // parts that are no unigram term; nil when there are none
	size    int32    // the Dict's Size(): the first side ID
	keyable bool     // every ID fits in 20 bits: side, keys and vals are built
	keys    []uint64 // slot keys
	vals    []int32  // slot term index
	shift   uint     // 64 - log2(len(keys))
}

const idBits = 20

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

func newWordIndex(d *Dict) *wordIndex {
	x := &wordIndex{size: int32(d.Size())}
	side := NewDict()
	var tkeys []uint64
	var tvals []int32
	for ix := int32(0); ix < x.size; ix++ {
		t := d.term(ix)
		np := 1 + bytes.Count(t, []byte{' '})
		if np == 1 {
			continue
		}
		k := uint64(np) << 60
		for i := 0; i < np; i++ {
			part, rest, _ := bytes.Cut(t, []byte{' '})
			t = rest
			id := d.LookupBytes(part)
			if id < 0 {
				id = x.size + side.Add(string(part))
			}
			if i < 3 {
				k |= uint64(id) << (idBits * i)
			}
		}
		if np <= 3 {
			tkeys, tvals = append(tkeys, k), append(tvals, ix)
		}
	}
	if int(x.size)+side.Size() >= 1<<idBits {
		return x // the fallback joins bytes: IDs and keys are not needed
	}
	x.keyable = true
	if side.Size() > 0 {
		side.arena, side.offs = slices.Clone(side.arena), slices.Clone(side.offs)
		x.side = side
	}
	slots := 1
	for 4*len(tkeys) > 3*slots {
		slots <<= 1
	}
	x.keys, x.vals = make([]uint64, slots), make([]int32, slots)
	x.shift = uint(64 - bits.TrailingZeros(uint(slots)))
	mask := uint64(slots - 1)
	for j, k := range tkeys {
		s := (k * hashMul) >> x.shift
		for x.keys[s] != 0 {
			s = (s + 1) & mask
		}
		x.keys[s], x.vals[s] = k, tvals[j]
	}
	return x
}

// sideID returns the ID of a token that is no unigram term: its index in
// side plus size, or -1 when it is no part of any term.
func (x *wordIndex) sideID(tok []byte) int32 {
	if x.side == nil {
		return -1
	}
	if id := x.side.LookupBytes(tok); id >= 0 {
		return x.size + id
	}
	return -1
}

// find returns the term index under key k, or -1.
func (x *wordIndex) find(k uint64) int32 {
	mask := uint64(len(x.keys) - 1)
	for s := (k * hashMul) >> x.shift; ; s = (s + 1) & mask {
		switch x.keys[s] {
		case k:
			return x.vals[s]
		case 0:
			return -1
		}
	}
}

// part returns the bytes of the part whose ID is id.
func (x *wordIndex) part(d *Dict, id int32) []byte {
	if id < x.size {
		return d.term(id)
	}
	return x.side.term(id - x.size)
}

// memBytes is the index's share of Dict.MemBytes.
func (x *wordIndex) memBytes() int {
	n := int(unsafe.Sizeof(*x)) + 8*cap(x.keys) + 4*cap(x.vals)
	if x.side != nil {
		n += x.side.MemBytes()
	}
	return n
}
