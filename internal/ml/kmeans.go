package ml

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"

	"pretzel/internal/linalg"
)

// KMeans is a trained K-Means clustering model. As a featurizer it maps an
// input vector to its squared distances to every centroid (the ML.Net
// KMeans transform output used inside AC ensembles).
type KMeans struct {
	K         int
	Dim       int
	Centroids []float32 // K*Dim row-major
}

// KMeansOptions control Lloyd's algorithm.
type KMeansOptions struct {
	K        int
	MaxIters int
	Seed     int64
}

// TrainKMeans clusters dense samples with Lloyd's algorithm and k-means++
// style seeding (greedy farthest-point).
func TrainKMeans(xs [][]float32, opt KMeansOptions) (*KMeans, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("ml: TrainKMeans on empty input")
	}
	if opt.K <= 0 {
		opt.K = 4
	}
	if opt.K > len(xs) {
		opt.K = len(xs)
	}
	if opt.MaxIters <= 0 {
		opt.MaxIters = 20
	}
	dim := len(xs[0])
	rng := rand.New(rand.NewSource(opt.Seed + 17))
	km := &KMeans{K: opt.K, Dim: dim, Centroids: make([]float32, opt.K*dim)}
	// Seeding: first centroid random, others farthest-from-nearest.
	copy(km.Centroids[:dim], xs[rng.Intn(len(xs))])
	minDist := make([]float32, len(xs))
	for i := range minDist {
		minDist[i] = linalg.SquaredDistance(xs[i], km.Centroids[:dim])
	}
	for c := 1; c < opt.K; c++ {
		best, bi := float32(-1), 0
		for i, d := range minDist {
			if d > best {
				best, bi = d, i
			}
		}
		copy(km.Centroids[c*dim:(c+1)*dim], xs[bi])
		for i := range minDist {
			d := linalg.SquaredDistance(xs[i], km.Centroids[c*dim:(c+1)*dim])
			if d < minDist[i] {
				minDist[i] = d
			}
		}
	}
	assign := make([]int, len(xs))
	counts := make([]int, opt.K)
	for iter := 0; iter < opt.MaxIters; iter++ {
		changed := false
		for i, x := range xs {
			best, bc := float32(math.MaxFloat32), 0
			for c := 0; c < opt.K; c++ {
				d := linalg.SquaredDistance(x, km.Centroids[c*dim:(c+1)*dim])
				if d < best {
					best, bc = d, c
				}
			}
			if assign[i] != bc {
				assign[i] = bc
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		for i := range km.Centroids {
			km.Centroids[i] = 0
		}
		for i := range counts {
			counts[i] = 0
		}
		for i, x := range xs {
			c := assign[i]
			counts[c]++
			linalg.Axpy(1, x, km.Centroids[c*dim:(c+1)*dim])
		}
		for c := 0; c < opt.K; c++ {
			if counts[c] > 0 {
				linalg.Scale(1/float32(counts[c]), km.Centroids[c*dim:(c+1)*dim])
			}
		}
	}
	return km, nil
}

// Distances writes the squared distance of x to each centroid into out
// (length >= K) and returns out[:K].
func (k *KMeans) Distances(x []float32, out []float32) []float32 {
	out = out[:k.K]
	for c := 0; c < k.K; c++ {
		out[c] = linalg.SquaredDistance(x, k.Centroids[c*k.Dim:(c+1)*k.Dim])
	}
	return out
}

// MemBytes estimates retained heap bytes.
func (k *KMeans) MemBytes() int { return 32 + 4*cap(k.Centroids) }

// WriteContent implements ops.Param: the canonical serialized bytes the
// Object Store's content address is computed over.
func (k *KMeans) WriteContent(w io.Writer) error {
	_, err := k.WriteTo(w)
	return err
}

// WriteTo serializes the model.
func (k *KMeans) WriteTo(w io.Writer) (int64, error) {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(k.K))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(k.Dim))
	var n int64
	c, err := w.Write(hdr[:])
	n += int64(c)
	if err != nil {
		return n, err
	}
	buf := make([]byte, 4*len(k.Centroids))
	for i, v := range k.Centroids {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	c, err = w.Write(buf)
	return n + int64(c), err
}

// ReadKMeans deserializes a model written by WriteTo.
func ReadKMeans(r io.Reader) (*KMeans, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("ml: kmeans header: %w", err)
	}
	kk := int64(binary.LittleEndian.Uint32(hdr[0:]))
	dim := int64(binary.LittleEndian.Uint32(hdr[4:]))
	if kk == 0 || kk > 1<<16 || dim > 1<<24 {
		return nil, fmt.Errorf("ml: implausible kmeans shape %dx%d", kk, dim)
	}
	cs, err := ReadFloats(r, kk*dim)
	if err != nil {
		return nil, fmt.Errorf("ml: kmeans centroids: %w", err)
	}
	return &KMeans{K: int(kk), Dim: int(dim), Centroids: cs}, nil
}
