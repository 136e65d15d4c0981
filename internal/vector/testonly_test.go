package vector

// Only tests call the functions in this file: no binary links them, so
// they are test helpers, kept beside the tests that check them until
// those tests are retired with them.

// ToDense materializes v into dst (len dst >= v.Dim) as a dense slice.
func (v *Vector) ToDense(dst []float32) []float32 {
	switch v.Kind {
	case KindDense:
		n := copy(dst, v.Dense)
		return dst[:n]
	case KindSparse:
		dst = dst[:v.Dim]
		for i := range dst {
			dst[i] = 0
		}
		for i, ix := range v.Idx {
			dst[ix] = v.Val[i]
		}
		return dst
	default:
		return dst[:0]
	}
}
