package ml

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// readStep bounds how far ReadBytes allocates ahead of the bytes it has
// read from a reader that does not know its length.
const readStep = 1 << 20

// ReadBytes reads the next n bytes of r. Every model payload is sized by
// a header read before it, so n is not yet backed by any bytes. A reader
// that knows how many bytes it has left (bytes.Reader and bytes.Buffer,
// which every import and clone passes) refuses a larger n before
// allocating; any other reader fills the buffer at most readStep ahead
// of the bytes that have arrived. A payload of up to readStep bytes is
// one allocation either way.
func ReadBytes(r io.Reader, n int64) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("ml: negative payload size %d", n)
	}
	if l, ok := r.(interface{ Len() int }); ok && n > int64(l.Len()) {
		return nil, fmt.Errorf("ml: payload of %d bytes, %d left: %w", n, l.Len(), io.ErrUnexpectedEOF)
	}
	buf := make([]byte, 0, min(n, readStep))
	for int64(len(buf)) < n {
		k := len(buf)
		c := int(min(n-int64(k), readStep))
		buf = slices.Grow(buf, c)[:k+c]
		if _, err := io.ReadFull(r, buf[k:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// ReadFloats reads n little-endian float32s through ReadBytes.
func ReadFloats(r io.Reader, n int64) ([]float32, error) {
	buf, err := ReadBytes(r, 4*n)
	if err != nil {
		return nil, err
	}
	fs := make([]float32, n)
	for i := range fs {
		fs[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return fs, nil
}
