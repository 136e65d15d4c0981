package ml

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"

	"pretzel/internal/linalg"
)

// PCA is a trained principal-component projection: x -> C (x - mean),
// where C is Components (K x Dim row-major).
type PCA struct {
	K          int
	Dim        int
	Mean       []float32
	Components []float32 // K*Dim row-major, orthonormal rows
}

// PCAOptions control power-iteration training.
type PCAOptions struct {
	K     int
	Iters int
	Seed  int64
}

// TrainPCA estimates the top-K principal components of dense samples with
// power iteration and deflation against the covariance operator (computed
// implicitly; no D×D matrix is materialized).
func TrainPCA(xs [][]float32, opt PCAOptions) (*PCA, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("ml: TrainPCA on empty input")
	}
	dim := len(xs[0])
	if opt.K <= 0 {
		opt.K = 2
	}
	if opt.K > dim {
		opt.K = dim
	}
	if opt.Iters <= 0 {
		opt.Iters = 30
	}
	p := &PCA{K: opt.K, Dim: dim, Mean: make([]float32, dim), Components: make([]float32, opt.K*dim)}
	for _, x := range xs {
		linalg.Axpy(1, x, p.Mean)
	}
	linalg.Scale(1/float32(len(xs)), p.Mean)
	centered := make([][]float32, len(xs))
	for i, x := range xs {
		c := make([]float32, dim)
		copy(c, x)
		linalg.Axpy(-1, p.Mean, c)
		centered[i] = c
	}
	rng := rand.New(rand.NewSource(opt.Seed + 23))
	v := make([]float32, dim)
	av := make([]float32, dim)
	for comp := 0; comp < opt.K; comp++ {
		for i := range v {
			v[i] = float32(rng.NormFloat64())
		}
		normalize(v)
		for it := 0; it < opt.Iters; it++ {
			// av = Cov * v = (1/n) Σ (x·v) x over centered x.
			for i := range av {
				av[i] = 0
			}
			for _, x := range centered {
				d := linalg.Dot(x, v)
				linalg.Axpy(d, x, av)
			}
			// Orthogonalize against previously found components.
			for pc := 0; pc < comp; pc++ {
				row := p.Components[pc*dim : (pc+1)*dim]
				d := linalg.Dot(av, row)
				linalg.Axpy(-d, row, av)
			}
			if linalg.L2(av) < 1e-12 {
				break
			}
			copy(v, av)
			normalize(v)
		}
		copy(p.Components[comp*dim:(comp+1)*dim], v)
		// Deflate: remove the found direction from the data.
		for _, x := range centered {
			d := linalg.Dot(x, v)
			linalg.Axpy(-d, v, x)
		}
	}
	return p, nil
}

func normalize(v []float32) {
	n := linalg.L2(v)
	if n > 0 {
		linalg.Scale(1/n, v)
	}
}

// Project writes the K-dim projection of x into out and returns out[:K].
func (p *PCA) Project(x []float32, out []float32) []float32 {
	out = out[:p.K]
	for c := 0; c < p.K; c++ {
		row := p.Components[c*p.Dim : (c+1)*p.Dim]
		// (x - mean)·row = x·row - mean·row; fold the constant in directly.
		out[c] = linalg.Dot(x, row) - linalg.Dot(p.Mean, row)
	}
	return out
}

// MemBytes estimates retained heap bytes.
func (p *PCA) MemBytes() int { return 32 + 4*cap(p.Mean) + 4*cap(p.Components) }

// WriteContent implements ops.Param: the canonical serialized bytes the
// Object Store's content address is computed over.
func (p *PCA) WriteContent(w io.Writer) error {
	_, err := p.WriteTo(w)
	return err
}

// WriteTo serializes the model.
func (p *PCA) WriteTo(w io.Writer) (int64, error) {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(p.K))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(p.Dim))
	var n int64
	c, err := w.Write(hdr[:])
	n += int64(c)
	if err != nil {
		return n, err
	}
	buf := make([]byte, 4*(len(p.Mean)+len(p.Components)))
	for i, v := range p.Mean {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	off := 4 * len(p.Mean)
	for i, v := range p.Components {
		binary.LittleEndian.PutUint32(buf[off+4*i:], math.Float32bits(v))
	}
	c, err = w.Write(buf)
	return n + int64(c), err
}

// ReadPCA deserializes a model written by WriteTo.
func ReadPCA(r io.Reader) (*PCA, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("ml: pca header: %w", err)
	}
	k := binary.LittleEndian.Uint32(hdr[0:])
	dim := binary.LittleEndian.Uint32(hdr[4:])
	if k == 0 || k > 1<<16 || dim > 1<<24 {
		return nil, fmt.Errorf("ml: implausible pca shape %dx%d", k, dim)
	}
	buf := make([]byte, 4*(dim+k*dim))
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("ml: pca payload: %w", err)
	}
	p := &PCA{K: int(k), Dim: int(dim), Mean: make([]float32, dim), Components: make([]float32, k*dim)}
	for i := range p.Mean {
		p.Mean[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	off := 4 * int(dim)
	for i := range p.Components {
		p.Components[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[off+4*i:]))
	}
	return p, nil
}
