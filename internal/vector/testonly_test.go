package vector

import "math"

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

// L2Norm returns the Euclidean norm of a dense or sparse vector.
func (v *Vector) L2Norm() float32 {
	var s float64
	switch v.Kind {
	case KindDense:
		for _, x := range v.Dense {
			s += float64(x) * float64(x)
		}
	case KindSparse:
		for _, x := range v.Val {
			s += float64(x) * float64(x)
		}
	}
	return float32(math.Sqrt(s))
}

// Scale multiplies every stored value by f.
func (v *Vector) Scale(f float32) {
	switch v.Kind {
	case KindDense:
		for i := range v.Dense {
			v.Dense[i] *= f
		}
	case KindSparse:
		for i := range v.Val {
			v.Val[i] *= f
		}
	}
}
