// Package text implements the text featurization substrate: tokenization,
// dictionary-based char/word n-gram extraction and feature hashing. These
// are the operators that dominate the latency profile of the Sentiment
// Analysis pipelines in the paper (Fig. 5: CharNgram 23.1%, WordNgram
// 34.2% of wall-clock vs 0.3% for the linear model).
//
// Two API styles are provided for each primitive:
//
//   - a materializing style ([]string tokens, sparse output vectors) used
//     by the black-box baseline engine, which — like ML.Net — allocates
//     intermediate results along the data path; and
//   - a streaming, zero-allocation style (callbacks over byte slices) used
//     by PRETZEL's fused physical stages.
//
// For a linear model pushed down into char n-gram extraction (§4.1: the
// optimized SA plan's head stage), CharNgramConfig.SumToken goes from
// gram to weight in one loop: each gram's dictionary key is read straight
// from the token bytes, the table is probed in line, and the weight is
// added in place, in the callback style's order, so the float32 sum is
// the same bit for bit. The string path (ExtractTokens), which the
// unoptimized pipeline.Run oracle takes, stays on Dict.Lookup.
package text

// asciiLower maps a byte to lowercase ASCII.
func asciiLower(b byte) byte {
	if b >= 'A' && b <= 'Z' {
		return b + ('a' - 'A')
	}
	return b
}

// isWordByte reports whether b belongs to a token.
func isWordByte(b byte) bool {
	return (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || (b >= '0' && b <= '9') || b == '\''
}

// Tokenize appends the lowercase tokens of s to dst and returns it. It
// allocates one string per token (the behaviour of the baseline engine).
func Tokenize(s string, dst []string) []string {
	i := 0
	n := len(s)
	var buf [64]byte
	for i < n {
		for i < n && !isWordByte(s[i]) {
			i++
		}
		start := i
		for i < n && isWordByte(s[i]) {
			i++
		}
		if i > start {
			tok := s[start:i]
			if len(tok) <= len(buf) {
				lower := buf[:len(tok)]
				changed := false
				for k := 0; k < len(tok); k++ {
					lower[k] = asciiLower(tok[k])
					if lower[k] != tok[k] {
						changed = true
					}
				}
				if changed {
					dst = append(dst, string(lower))
				} else {
					dst = append(dst, tok)
				}
			} else {
				b := make([]byte, len(tok))
				for k := 0; k < len(tok); k++ {
					b[k] = asciiLower(tok[k])
				}
				dst = append(dst, string(b))
			}
		}
	}
	return dst
}

// TokenizeFunc streams the lowercase tokens of s as byte slices valid only
// for the duration of the callback. buf is a scratch buffer reused between
// tokens; it grows as needed and is returned for reuse. This is the
// zero-allocation path used by fused PRETZEL stages.
func TokenizeFunc(s string, buf []byte, fn func(tok []byte)) []byte {
	i := 0
	n := len(s)
	for i < n {
		for i < n && !isWordByte(s[i]) {
			i++
		}
		start := i
		for i < n && isWordByte(s[i]) {
			i++
		}
		if i > start {
			tok := s[start:i]
			if cap(buf) < len(tok) {
				buf = make([]byte, 0, len(tok)*2)
			}
			b := buf[:len(tok)]
			for k := 0; k < len(tok); k++ {
				b[k] = asciiLower(tok[k])
			}
			fn(b)
		}
	}
	return buf
}
