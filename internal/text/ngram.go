package text

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
)

// CharNgramConfig parameterizes character n-gram extraction. Character
// n-grams are taken inside token boundaries after lowercasing, for lengths
// MinN..MaxN.
type CharNgramConfig struct {
	MinN, MaxN int
	Dict       *Dict
}

// ExtractTokens emits the dictionary indices of all char n-grams of the
// (already lowercased) tokens. Zero allocations.
func (c *CharNgramConfig) ExtractTokens(tokens []string, emit func(idx int32)) {
	for _, tok := range tokens {
		c.extractOne(tok, emit)
	}
}

// ExtractToken emits the dictionary indices of all char n-grams of one
// lowercased token given as bytes. Zero allocations. SumToken is its
// fused form for a linear head.
func (c *CharNgramConfig) ExtractToken(tok []byte, emit func(idx int32)) {
	for n := c.MinN; n <= c.MaxN; n++ {
		if len(tok) < n {
			break
		}
		for i := 0; i+n <= len(tok); i++ {
			if ix := c.Dict.LookupBytes(tok[i : i+n]); ix >= 0 {
				emit(ix)
			}
		}
	}
}

// SumToken returns acc plus w[ix] for the index ix of every char n-gram of
// one lowercased token that is in the dictionary: the char block of a
// linear model pushed down into the featurizer (§4.1). The sum is taken in
// ExtractToken's emission order (n outer, i inner), so it is bit-identical
// to adding w[ix] in an ExtractToken callback, but no function is called
// per gram. A gram of at most 7 bytes is keyed straight from the 8-byte
// little-endian window at tok[i:], masked to n bytes and tagged with n in
// the top byte (the Dict key of a short term), and the table is probed in
// line; the windows that would run past the end of tok read from a
// zero-padded copy of its tail. A longer gram takes the Dict's hashed key,
// verified against the arena. Zero allocations.
func (c *CharNgramConfig) SumToken(tok []byte, w []float32, acc float32) float32 {
	d := c.Dict
	keys, vals, shift := d.keys, d.vals, d.shift
	mask := uint64(len(keys) - 1)
	var tail [16]byte
	t0 := max(len(tok)-7, 0)
	copy(tail[:], tok[t0:])
	for n := c.MinN; n <= c.MaxN && n <= len(tok); n++ {
		if n >= 8 {
			for i := 0; i+n <= len(tok); i++ {
				g := tok[i : i+n]
				if ix := find(d, g, bytesKey(g)); ix >= 0 {
					acc += w[ix]
				}
			}
			continue
		}
		gmask, tag := uint64(1)<<(8*n)-1, uint64(n)<<56
		for i := 0; i+n <= len(tok); i++ {
			var win uint64
			if i+8 <= len(tok) {
				win = binary.LittleEndian.Uint64(tok[i:])
			} else {
				win = binary.LittleEndian.Uint64(tail[i-t0:])
			}
			k := win&gmask | tag
			for s := (k * hashMul) >> shift; ; s = (s + 1) & mask {
				v := vals[s]
				if v == 0 {
					break
				}
				if keys[s] == k {
					acc += w[v-1]
					break
				}
			}
		}
	}
	return acc
}

func (c *CharNgramConfig) extractOne(tok string, emit func(idx int32)) {
	for n := c.MinN; n <= c.MaxN; n++ {
		if len(tok) < n {
			break
		}
		for i := 0; i+n <= len(tok); i++ {
			if ix := c.Dict.Lookup(tok[i : i+n]); ix >= 0 {
				emit(ix)
			}
		}
	}
}

// ObserveCharNgrams feeds all char n-grams of a lowercased token into a
// dictionary builder (training path).
func ObserveCharNgrams(b *DictBuilder, tok []byte, minN, maxN int) {
	for n := minN; n <= maxN; n++ {
		if len(tok) < n {
			break
		}
		for i := 0; i+n <= len(tok); i++ {
			b.ObserveBytes(tok[i : i+n])
		}
	}
}

// WordNgramConfig parameterizes word n-gram extraction for n = 1..MaxN.
// Multi-word grams are keyed as "w1 w2 ..." joined with single spaces.
type WordNgramConfig struct {
	MaxN int
	Dict *Dict
}

// ExtractTokens emits dictionary indices of all word n-grams over tokens.
// The scratch buffer joins multi-word keys without allocating; it is
// returned for reuse. MaxN counts only up to the dictionary's longest
// term, in parts: a longer gram can match no term, so an upload's MaxN
// cannot make a document cost more than Parts() joins per token.
func (c *WordNgramConfig) ExtractTokens(tokens []string, scratch []byte, emit func(idx int32)) []byte {
	maxN := min(c.MaxN, c.Dict.Parts())
	for i := range tokens {
		if ix := c.Dict.Lookup(tokens[i]); ix >= 0 {
			emit(ix)
		}
		for n := 2; n <= maxN; n++ {
			if i+n > len(tokens) {
				break
			}
			scratch = scratch[:0]
			for k := 0; k < n; k++ {
				if k > 0 {
					scratch = append(scratch, ' ')
				}
				scratch = append(scratch, tokens[i+k]...)
			}
			if ix := c.Dict.LookupBytes(scratch); ix >= 0 {
				emit(ix)
			}
		}
	}
	return scratch
}

// WordNgramStream incrementally consumes lowercased tokens one at a time
// (the streaming path used by fused stages, where tokens are produced by
// TokenizeFunc and never materialized as strings).
//
// It works on the dictionary's word index: a token's ID is its unigram
// index, or else its place among the parts of multi-word terms, and the
// stream keeps the IDs of the last two tokens, so an n-gram is one
// integer probe, and a token that is in no term skips all of its
// n-grams. It joins token bytes and looks the gram up in the Dict
// instead (the fallback) when the index cannot key the grams: a term of
// more than 3 parts within MaxN, or 2^20 IDs or more. A token with a space
// in it, which TokenizeFunc never emits, moves the rest of the document
// to the fallback too. Either way it emits what ExtractTokens does, and
// MaxN counts only up to the dictionary's longest term, in parts: a
// longer gram can match no term.
type WordNgramStream struct {
	cfg    *WordNgramConfig
	ix     *wordIndex
	maxN   int  // cfg.MaxN, at most the longest term's parts
	tuples bool // the index keys every gram up to maxN
	joined bool // this document takes the fallback
	// p1 and p2 are the IDs of the last two tokens on the index; -1 for a
	// token that is in no term, and before the document's start.
	p1, p2 int32

	ring [][]byte // the fallback's copies of the last maxN-1 tokens
	n    int      // tokens seen
	dead int      // the fallback's last token known to be in no term; -1 if none
	key  []byte
}

// Configure re-targets the stream at a new configuration, reusing the
// token ring storage when possible (lets an executor keep one stream for
// all plans it runs, allocation-free in steady state). It builds the
// dictionary's word index if no one has.
func (w *WordNgramStream) Configure(cfg *WordNgramConfig) {
	w.cfg, w.ix = cfg, cfg.Dict.wordIndex()
	w.maxN = min(cfg.MaxN, cfg.Dict.Parts())
	w.tuples = w.ix.keyable && w.maxN <= 3
	need := max(w.maxN-1, 0)
	if need > cap(w.ring) {
		w.ring = append(w.ring[:cap(w.ring)], make([][]byte, need-cap(w.ring))...)
	}
	w.ring = w.ring[:need]
	w.Reset()
}

// Reset prepares the stream for a new document.
func (w *WordNgramStream) Reset() {
	w.joined = !w.tuples
	w.p1, w.p2, w.n, w.dead = -1, -1, 0, -1
}

// Push consumes the next token (valid only during the call) and emits the
// indices of every n-gram ending at this token: the unigram first, then
// n = 2, 3, ...
func (w *WordNgramStream) Push(tok []byte, emit func(idx int32)) {
	if w.join(tok) {
		w.pushJoined(tok, emit)
		return
	}
	uni, bi, tri := w.next(tok)
	if uni >= 0 {
		emit(uni)
	}
	if bi >= 0 {
		emit(bi)
	}
	if tri >= 0 {
		emit(tri)
	}
}

// Sum consumes the next token like Push and returns acc plus wt[ix] for
// every index Push would emit, added in Push's order, so the float32 sum
// is bit-identical to adding the weights in a Push callback: the word
// block of a linear model pushed down into the featurizer (§4.1).
func (w *WordNgramStream) Sum(tok []byte, wt []float32, acc float32) float32 {
	if w.join(tok) {
		w.pushJoined(tok, func(ix int32) { acc += wt[ix] })
		return acc
	}
	uni, bi, tri := w.next(tok)
	if uni >= 0 {
		acc += wt[uni]
	}
	if bi >= 0 {
		acc += wt[bi]
	}
	if tri >= 0 {
		acc += wt[tri]
	}
	return acc
}

// join reports whether tok takes the fallback. A token with a space in it
// moves the document there when a gram can span two tokens: the ring then
// gets back the bytes of the tokens the IDs name, and a token without an
// ID becomes dead, as no gram through it can match.
func (w *WordNgramStream) join(tok []byte) bool {
	if w.joined {
		return true
	}
	if w.maxN < 2 || bytes.IndexByte(tok, ' ') < 0 {
		return false
	}
	w.joined = true
	ids := [2]int32{w.p1, w.p2}
	for k, id := range ids[:len(w.ring)] {
		pos := w.n - 1 - k
		if pos < 0 {
			break
		}
		if id < 0 {
			w.dead = max(w.dead, pos)
			continue
		}
		slot := &w.ring[pos%len(w.ring)]
		*slot = append((*slot)[:0], w.ix.part(w.cfg.Dict, id)...)
	}
	return true
}

// next consumes a token without a space on the index and returns the
// indices of its unigram, and of the 2- and 3-gram that end at it, or -1.
func (w *WordNgramStream) next(tok []byte) (uni, bi, tri int32) {
	uni, bi, tri = w.cfg.Dict.LookupBytes(tok), -1, -1
	if w.maxN < 2 {
		return
	}
	id := uni
	if id < 0 {
		id = w.ix.sideID(tok)
	}
	p1, p2 := w.p1, w.p2
	w.p1, w.p2 = id, p1
	w.n++
	if id < 0 || p1 < 0 {
		return
	}
	bi = w.ix.find(2<<60 | uint64(p1) | uint64(id)<<idBits)
	if w.maxN >= 3 && p2 >= 0 {
		tri = w.ix.find(3<<60 | uint64(p2) | uint64(p1)<<idBits | uint64(id)<<(2*idBits))
	}
	return
}

// pushJoined is Push on joined bytes: each gram's key is the last n-1
// tokens and this one, joined with spaces, looked up in the Dict.
func (w *WordNgramStream) pushJoined(tok []byte, emit func(idx int32)) {
	if ix := w.cfg.Dict.LookupBytes(tok); ix >= 0 {
		emit(ix)
	}
	ringN := len(w.ring)
	for n := 2; n <= w.maxN && n-1 <= w.n && w.n-(n-1) > w.dead; n++ {
		w.key = w.key[:0]
		for k := n - 1; k >= 1; k-- {
			w.key = append(w.key, w.ring[(w.n-k)%ringN]...)
			w.key = append(w.key, ' ')
		}
		w.key = append(w.key, tok...)
		if ix := w.cfg.Dict.LookupBytes(w.key); ix >= 0 {
			emit(ix)
		}
	}
	if ringN > 0 {
		slot := &w.ring[w.n%ringN]
		*slot = append((*slot)[:0], tok...)
	}
	w.n++
}

// ObserveWordNgrams feeds word n-grams of a token sequence into a builder.
func ObserveWordNgrams(b *DictBuilder, tokens []string, maxN int, scratch []byte) []byte {
	for i := range tokens {
		b.Observe(tokens[i])
		for n := 2; n <= maxN; n++ {
			if i+n > len(tokens) {
				break
			}
			scratch = scratch[:0]
			for k := 0; k < n; k++ {
				if k > 0 {
					scratch = append(scratch, ' ')
				}
				scratch = append(scratch, tokens[i+k]...)
			}
			b.ObserveBytes(scratch)
		}
	}
	return scratch
}

// HashNgramConfig is the dictionary-free hashing featurizer: n-grams are
// mapped to 1<<Bits buckets with FNV-1a (ML.Net's HashingVectorizer).
type HashNgramConfig struct {
	Bits int // output dimension = 1<<Bits
	Word bool
	MaxN int
}

// Dim returns the output dimensionality.
func (c *HashNgramConfig) Dim() int { return 1 << c.Bits }

// HashToken emits the bucket of one token (word mode) or of its char
// n-grams (char mode).
func (c *HashNgramConfig) HashToken(tok []byte, emit func(idx int32)) {
	mask := uint64(c.Dim() - 1)
	if c.Word {
		h := fnv.New64a()
		h.Write(tok)
		emit(int32(h.Sum64() & mask))
		return
	}
	for n := 2; n <= c.MaxN; n++ {
		if len(tok) < n {
			break
		}
		for i := 0; i+n <= len(tok); i++ {
			h := fnv.New64a()
			h.Write(tok[i : i+n])
			emit(int32(h.Sum64() & mask))
		}
	}
}
