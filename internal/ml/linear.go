// Package ml implements the classical ML models the PRETZEL operator set
// supports (§5: "linear models (e.g., linear/logistic/Poisson regression),
// tree-based models, clustering models (e.g., K-Means), Principal
// Components Analysis (PCA)"), with simple but real training algorithms —
// SGD for linear models, CART for trees, Lloyd's algorithm for K-Means and
// power iteration for PCA.
package ml

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"

	"pretzel/internal/linalg"
)

// Sample is one training example; either sparse (Idx/Val) or dense.
type Sample struct {
	Idx   []int32
	Val   []float32
	Dense []float32
	Label float32
}

// LinearKind selects the link/loss of a linear model.
type LinearKind uint8

// Linear model kinds.
const (
	LinearRegression   LinearKind = iota // identity link, squared loss
	LogisticRegression                   // sigmoid link, log loss
	PoissonRegression                    // exp link, Poisson loss
)

// String names the kind.
func (k LinearKind) String() string {
	switch k {
	case LinearRegression:
		return "linear"
	case LogisticRegression:
		return "logistic"
	case PoissonRegression:
		return "poisson"
	default:
		return "unknown"
	}
}

// LinearModel is a trained (generalized) linear model.
type LinearModel struct {
	Kind    LinearKind
	Weights []float32
	Bias    float32
}

// Dim returns the input dimensionality.
func (m *LinearModel) Dim() int { return len(m.Weights) }

// Margin returns the pre-link raw score w·x + b for dense input.
func (m *LinearModel) Margin(x []float32) float32 {
	return linalg.Dot(m.Weights, x) + m.Bias
}

// MarginSparse returns the pre-link raw score for sparse input.
func (m *LinearModel) MarginSparse(idx []int32, val []float32) float32 {
	return linalg.SparseDot(idx, val, m.Weights) + m.Bias
}

// Link applies the model's link function to a raw margin.
func (m *LinearModel) Link(margin float32) float32 {
	switch m.Kind {
	case LogisticRegression:
		return linalg.Sigmoid(margin)
	case PoissonRegression:
		if margin > 30 {
			margin = 30
		}
		return linalg.Exp(margin)
	default:
		return margin
	}
}

// Score returns the prediction for dense input.
func (m *LinearModel) Score(x []float32) float32 { return m.Link(m.Margin(x)) }

// ScoreSparse returns the prediction for sparse input.
func (m *LinearModel) ScoreSparse(idx []int32, val []float32) float32 {
	return m.Link(m.MarginSparse(idx, val))
}

// LinearOptions control SGD training.
type LinearOptions struct {
	Kind       LinearKind
	Dim        int
	Epochs     int
	LearnRate  float32
	L2         float32
	Seed       int64
	ClampLabel float32 // for Poisson: labels above this are clamped (0 = off)
}

// TrainLinear fits a linear model with plain SGD.
func TrainLinear(samples []Sample, opt LinearOptions) (*LinearModel, error) {
	if opt.Dim <= 0 {
		return nil, fmt.Errorf("ml: TrainLinear needs Dim > 0, got %d", opt.Dim)
	}
	if opt.Epochs <= 0 {
		opt.Epochs = 5
	}
	if opt.LearnRate <= 0 {
		opt.LearnRate = 0.1
	}
	m := &LinearModel{Kind: opt.Kind, Weights: make([]float32, opt.Dim)}
	rng := rand.New(rand.NewSource(opt.Seed + 1))
	order := rng.Perm(len(samples))
	for e := 0; e < opt.Epochs; e++ {
		lr := opt.LearnRate / float32(1+e)
		for _, si := range order {
			s := samples[si]
			label := s.Label
			if opt.ClampLabel > 0 && label > opt.ClampLabel {
				label = opt.ClampLabel
			}
			var margin float32
			if s.Dense != nil {
				margin = m.Margin(s.Dense)
			} else {
				margin = m.MarginSparse(s.Idx, s.Val)
			}
			// Gradient of the loss wrt the margin; for all three canonical
			// links this is (prediction - label).
			g := m.Link(margin) - label
			step := -lr * g
			if s.Dense != nil {
				linalg.Axpy(step, s.Dense, m.Weights)
			} else {
				linalg.SparseAxpy(step, s.Idx, s.Val, m.Weights)
			}
			m.Bias += step
			if opt.L2 > 0 {
				linalg.Scale(1-lr*opt.L2, m.Weights)
			}
		}
	}
	return m, nil
}

// MemBytes estimates retained heap bytes.
func (m *LinearModel) MemBytes() int { return 24 + 4*cap(m.Weights) }

// WriteContent implements ops.Param: the canonical serialized bytes the
// Object Store's content address is computed over.
func (m *LinearModel) WriteContent(w io.Writer) error {
	_, err := m.WriteTo(w)
	return err
}

// WriteTo serializes the model.
func (m *LinearModel) WriteTo(w io.Writer) (int64, error) {
	var n int64
	var hdr [9]byte
	hdr[0] = byte(m.Kind)
	binary.LittleEndian.PutUint32(hdr[1:5], math.Float32bits(m.Bias))
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(len(m.Weights)))
	k, err := w.Write(hdr[:])
	n += int64(k)
	if err != nil {
		return n, err
	}
	buf := make([]byte, 4*len(m.Weights))
	for i, wv := range m.Weights {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(wv))
	}
	k, err = w.Write(buf)
	return n + int64(k), err
}

// ReadLinearModel deserializes a model written by WriteTo.
func ReadLinearModel(r io.Reader) (*LinearModel, error) {
	var hdr [9]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("ml: linear header: %w", err)
	}
	kind := LinearKind(hdr[0])
	if kind > PoissonRegression {
		return nil, fmt.Errorf("ml: bad linear kind %d", kind)
	}
	bias := math.Float32frombits(binary.LittleEndian.Uint32(hdr[1:5]))
	dim := binary.LittleEndian.Uint32(hdr[5:9])
	if dim > 1<<28 {
		return nil, fmt.Errorf("ml: implausible weight count %d", dim)
	}
	ws, err := ReadFloats(r, int64(dim))
	if err != nil {
		return nil, fmt.Errorf("ml: linear weights: %w", err)
	}
	return &LinearModel{Kind: kind, Bias: bias, Weights: ws}, nil
}
