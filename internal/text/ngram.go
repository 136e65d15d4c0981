package text

import (
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
// returned for reuse.
func (c *WordNgramConfig) ExtractTokens(tokens []string, scratch []byte, emit func(idx int32)) []byte {
	for i := range tokens {
		if ix := c.Dict.Lookup(tokens[i]); ix >= 0 {
			emit(ix)
		}
		for n := 2; n <= c.MaxN; n++ {
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
// TokenizeFunc and never materialized as strings). It keeps a ring of the
// last MaxN-1 tokens to form multi-word grams.
type WordNgramStream struct {
	cfg  *WordNgramConfig
	ring [][]byte // owned copies of recent tokens
	n    int      // tokens seen
	key  []byte
}

// NewWordNgramStream returns a stream extractor over cfg.
func NewWordNgramStream(cfg *WordNgramConfig) *WordNgramStream {
	w := &WordNgramStream{}
	w.Configure(cfg)
	return w
}

// Configure re-targets the stream at a new configuration, reusing the
// token ring storage when possible (lets an executor keep one stream for
// all plans it runs, allocation-free in steady state).
func (w *WordNgramStream) Configure(cfg *WordNgramConfig) {
	w.cfg = cfg
	w.n = 0
	need := 0
	if cfg.MaxN > 1 {
		need = cfg.MaxN - 1
	}
	for len(w.ring) < need {
		w.ring = append(w.ring, make([]byte, 0, 16))
	}
	w.ring = w.ring[:need]
}

// Reset prepares the stream for a new document.
func (w *WordNgramStream) Reset() { w.n = 0 }

// Push consumes the next token (valid only during the call) and emits the
// indices of every n-gram ending at this token.
func (w *WordNgramStream) Push(tok []byte, emit func(idx int32)) {
	if ix := w.cfg.Dict.LookupBytes(tok); ix >= 0 {
		emit(ix)
	}
	ringN := len(w.ring)
	for n := 2; n <= w.cfg.MaxN; n++ {
		if w.n < n-1 {
			break
		}
		w.key = w.key[:0]
		for k := n - 1; k >= 1; k-- {
			prev := w.ring[(w.n-k)%ringN]
			w.key = append(w.key, prev...)
			w.key = append(w.key, ' ')
		}
		w.key = append(w.key, tok...)
		if ix := w.cfg.Dict.LookupBytes(w.key); ix >= 0 {
			emit(ix)
		}
	}
	if ringN > 0 {
		slot := w.ring[w.n%ringN][:0]
		w.ring[w.n%ringN] = append(slot, tok...)
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
