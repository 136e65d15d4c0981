package text

import (
	"bytes"
	"encoding/binary"
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
// It walks the dictionary's word index, a trie over the parts of its
// terms, and keeps one node per n: the node of the last n tokens, or -1
// when they begin no term. Each n-gram that ends at a token is then one
// probe from the previous token's node one n shorter; a token that is in
// no term ends all of its grams, and a token with spaces in it walks one
// probe per part. It emits what ExtractTokens does for any bytes and any
// MaxN, and MaxN counts only up to the dictionary's longest term, in
// parts: a longer gram can match no term.
type WordNgramStream struct {
	cfg   *WordNgramConfig
	ix    *wordIndex
	nodes []int32 // nodes[n-1] is the node of the last n tokens, or -1
}

// Configure re-targets the stream at a new configuration, reusing the
// node storage when possible (lets an executor keep one stream for all
// plans it runs, allocation-free in steady state). It builds the
// dictionary's word index if no one has.
func (w *WordNgramStream) Configure(cfg *WordNgramConfig) {
	w.cfg, w.ix = cfg, cfg.Dict.wordIndex()
	n := max(min(cfg.MaxN, cfg.Dict.Parts()), 1)
	if n > cap(w.nodes) {
		w.nodes = make([]int32, n)
	}
	w.nodes = w.nodes[:n]
	w.Reset()
}

// Reset prepares the stream for a new document.
func (w *WordNgramStream) Reset() {
	for n := range w.nodes {
		w.nodes[n] = -1
	}
}

// Push consumes the next token (valid only during the call) and emits the
// indices of every n-gram ending at this token: the unigram first, then
// n = 2, 3, ...
func (w *WordNgramStream) Push(tok []byte, emit func(idx int32)) {
	w.step(tok)
	size := uint32(w.ix.size)
	for _, node := range w.nodes {
		if uint32(node) < size {
			emit(node)
		}
	}
}

// Sum consumes the next token like Push and returns acc plus wt[ix] for
// every index Push would emit, added in Push's order, so the float32 sum
// is bit-identical to adding the weights in a Push callback: the word
// block of a linear model pushed down into the featurizer (§4.1).
func (w *WordNgramStream) Sum(tok []byte, wt []float32, acc float32) float32 {
	w.step(tok)
	size := uint32(w.ix.size)
	for _, node := range w.nodes {
		if uint32(node) < size {
			acc += wt[node]
		}
	}
	return acc
}

// step moves each node one n up, taking the edge by the token's first
// part, and then, for a token with spaces in it, walks every node down
// each further part until no node is left.
func (w *WordNgramStream) step(tok []byte) {
	x, d, nodes := w.ix, w.cfg.Dict, w.nodes
	part, rest, more := tok, tok, false
	if sp := bytes.IndexByte(tok, ' '); sp >= 0 {
		part, rest, more = tok[:sp], tok[sp+1:], true
	}
	q := d.LookupBytes(part)
	if q < 0 {
		q = x.sideID(part)
	}
	for n := len(nodes) - 1; n > 0; n-- {
		nodes[n] = x.child(nodes[n-1], q)
	}
	nodes[0] = q
	for live := true; more && live; {
		part, rest, more = bytes.Cut(rest, []byte{' '})
		if q, live = d.LookupBytes(part), false; q < 0 {
			q = x.sideID(part)
		}
		for n, p := range nodes {
			nodes[n] = x.child(p, q)
			live = live || nodes[n] >= 0
		}
	}
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
