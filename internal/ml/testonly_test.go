package ml

import "pretzel/internal/linalg"

// Only tests call the functions in this file: no binary links them, so
// they are test helpers, kept beside the tests that check them until
// those tests are retired with them.

// DistancesSparse is Distances for sparse input, computed as
// ||c||^2 - 2*x·c + ||x||^2 without densifying x.
func (k *KMeans) DistancesSparse(idx []int32, val []float32, out []float32) []float32 {
	out = out[:k.K]
	xsq := linalg.Dot(val, val)
	for c := 0; c < k.K; c++ {
		row := k.Centroids[c*k.Dim : (c+1)*k.Dim]
		out[c] = linalg.Dot(row, row) - 2*linalg.SparseDot(idx, val, row) + xsq
	}
	return out
}
