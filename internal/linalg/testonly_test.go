package linalg

// Only tests call the functions in this file: no binary links them, so
// they are test helpers, kept beside the tests that check them until
// those tests are retired with them.

// Gemv computes out = M * x for a row-major matrix M with rows r and cols c.
// out must have length >= r; x length >= c. Rows are processed four at a
// time so every loaded x element feeds four accumulators (x is read once
// per row block instead of once per row).
func Gemv(m []float32, r, c int, x, out []float32) {
	x = x[:c]
	i := 0
	for ; i+4 <= r; i += 4 {
		r0 := m[(i+0)*c : (i+1)*c]
		r1 := m[(i+1)*c : (i+2)*c]
		r2 := m[(i+2)*c : (i+3)*c]
		r3 := m[(i+3)*c : (i+4)*c]
		r0, r1, r2, r3 = r0[:len(x)], r1[:len(x)], r2[:len(x)], r3[:len(x)]
		var s0, s1, s2, s3 float32
		for k, xv := range x {
			s0 += r0[k] * xv
			s1 += r1[k] * xv
			s2 += r2[k] * xv
			s3 += r3[k] * xv
		}
		out[i+0] = s0
		out[i+1] = s1
		out[i+2] = s2
		out[i+3] = s3
	}
	for ; i < r; i++ {
		out[i] = Dot(m[i*c:(i+1)*c], x)
	}
}

// SparseGemv computes out = M * xs for sparse x (idx/val), M row-major r×c.
func SparseGemv(m []float32, r, c int, idx []int32, val []float32, out []float32) {
	n := len(idx)
	if len(val) < n {
		n = len(val)
	}
	idx, val = idx[:n], val[:n]
	for i := 0; i < r; i++ {
		row := m[i*c : (i+1)*c]
		var s0, s1 float32
		k := 0
		for ; k+2 <= len(idx); k += 2 {
			if j := int(uint32(idx[k])); j < len(row) {
				s0 += val[k] * row[j]
			}
			if j := int(uint32(idx[k+1])); j < len(row) {
				s1 += val[k+1] * row[j]
			}
		}
		if k < len(idx) {
			if j := int(uint32(idx[k])); j < len(row) {
				s0 += val[k] * row[j]
			}
		}
		out[i] = s0 + s1
	}
}

// SparseSquaredDistance returns ||xs - c||^2 for sparse x against dense c,
// computed as ||c||^2 - 2*x·c + ||x||^2 without densifying x.
func SparseSquaredDistance(idx []int32, val []float32, c []float32, cNormSq float32) float32 {
	n := len(idx)
	if len(val) < n {
		n = len(val)
	}
	idx, val = idx[:n], val[:n]
	var dot, xsq float32
	for i, ix := range idx {
		v := val[i]
		xsq += v * v
		if j := int(uint32(ix)); j < len(c) {
			dot += v * c[j]
		}
	}
	return cNormSq - 2*dot + xsq
}

// Sum returns the sum of the elements.
func Sum(x []float32) float32 {
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	for len(x) >= 8 {
		x8 := x[:8]
		s0 += x8[0]
		s1 += x8[1]
		s2 += x8[2]
		s3 += x8[3]
		s4 += x8[4]
		s5 += x8[5]
		s6 += x8[6]
		s7 += x8[7]
		x = x[8:]
	}
	for _, v := range x {
		s0 += v
	}
	return ((s0 + s4) + (s1 + s5)) + ((s2 + s6) + (s3 + s7))
}

// ArgMax returns the index of the maximum element (-1 for empty input).
func ArgMax(x []float32) int {
	if len(x) == 0 {
		return -1
	}
	best, bi := x[0], 0
	for i := 1; i < len(x); i++ {
		if x[i] > best {
			best, bi = x[i], i
		}
	}
	return bi
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(x []float32) float32 {
	if len(x) == 0 {
		return 0
	}
	return Sum(x) / float32(len(x))
}

// Variance returns the population variance (0 for empty input).
func Variance(x []float32) float32 {
	if len(x) == 0 {
		return 0
	}
	m := Mean(x)
	var s0, s1 float32
	y := x
	for len(y) >= 2 {
		y2 := y[:2]
		d0 := y2[0] - m
		d1 := y2[1] - m
		s0 += d0 * d0
		s1 += d1 * d1
		y = y[2:]
	}
	if len(y) > 0 {
		d := y[0] - m
		s0 += d * d
	}
	return (s0 + s1) / float32(len(x))
}
