package ml

import (
	"encoding/binary"
	"fmt"
	"io"

	"pretzel/internal/linalg"
)

// TreeFeaturizer maps an input vector to the one-hot encoding of the leaf
// it reaches in every tree of a forest (ML.Net's TreeFeaturizer, used in
// the AC ensembles). Output dimension = total number of leaves.
type TreeFeaturizer struct {
	Forest *Forest
	// leafBase[i] is the output offset of tree i's leaf block.
	leafBase []int32
}

// NewTreeFeaturizer wraps a trained forest.
func NewTreeFeaturizer(f *Forest) *TreeFeaturizer {
	tf := &TreeFeaturizer{Forest: f, leafBase: make([]int32, len(f.Trees))}
	var off int32
	for i, t := range f.Trees {
		tf.leafBase[i] = off
		off += t.Leaves
	}
	return tf
}

// Dim returns the output dimensionality (total leaves).
func (tf *TreeFeaturizer) Dim() int { return tf.Forest.TotalLeaves() }

// Featurize emits the active leaf index per tree (sparse one-hot output).
func (tf *TreeFeaturizer) Featurize(x []float32, emit func(idx int32, val float32)) {
	for i, t := range tf.Forest.Trees {
		leaf := t.LeafIndex(x)
		emit(tf.leafBase[i]+leaf, 1)
	}
}

// MemBytes estimates retained heap bytes.
func (tf *TreeFeaturizer) MemBytes() int { return tf.Forest.MemBytes() + 4*cap(tf.leafBase) }

// WriteContent implements ops.Param. The store's content digest is
// type-qualified, so delegating to the forest's serialization cannot
// collide with a plain Forest over the same trees.
func (tf *TreeFeaturizer) WriteContent(w io.Writer) error {
	_, err := tf.Forest.WriteTo(w)
	return err
}

// MultiClassForest is a one-vs-rest multi-class classifier: one regression
// forest per class trained on class-membership indicators; Scores returns
// the per-class probability vector via softmax.
type MultiClassForest struct {
	Classes []*Forest
}

// MultiClassOptions control training.
type MultiClassOptions struct {
	NumClasses int
	Forest     ForestOptions
}

// TrainMultiClassForest fits a one-vs-rest forest classifier; ys holds
// class ids in [0, NumClasses).
func TrainMultiClassForest(xs [][]float32, ys []int, opt MultiClassOptions) (*MultiClassForest, error) {
	if opt.NumClasses <= 1 {
		return nil, fmt.Errorf("ml: need >= 2 classes, got %d", opt.NumClasses)
	}
	mc := &MultiClassForest{}
	ind := make([]float32, len(ys))
	for c := 0; c < opt.NumClasses; c++ {
		for i, y := range ys {
			if y == c {
				ind[i] = 1
			} else {
				ind[i] = 0
			}
		}
		fopt := opt.Forest
		fopt.Seed = opt.Forest.Seed + int64(c)*1009
		f, err := TrainForest(xs, ind, fopt)
		if err != nil {
			return nil, err
		}
		mc.Classes = append(mc.Classes, f)
	}
	return mc, nil
}

// NumClasses returns the class count.
func (mc *MultiClassForest) NumClasses() int { return len(mc.Classes) }

// Scores writes the per-class probabilities into out and returns out.
func (mc *MultiClassForest) Scores(x []float32, out []float32) []float32 {
	out = out[:len(mc.Classes)]
	for c, f := range mc.Classes {
		out[c] = f.Predict(x)
	}
	return linalg.Softmax(out, out)
}

// Predict returns the argmax class.
func (mc *MultiClassForest) Predict(x []float32) int {
	scores := make([]float32, len(mc.Classes))
	return linalg.ArgMax(mc.Scores(x, scores))
}

// MemBytes estimates retained heap bytes.
func (mc *MultiClassForest) MemBytes() int {
	n := 24
	for _, f := range mc.Classes {
		n += f.MemBytes()
	}
	return n
}

// WriteContent implements ops.Param: the canonical serialized bytes the
// Object Store's content address is computed over.
func (mc *MultiClassForest) WriteContent(w io.Writer) error {
	_, err := mc.WriteTo(w)
	return err
}

// WriteTo serializes the classifier.
func (mc *MultiClassForest) WriteTo(w io.Writer) (int64, error) {
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(mc.Classes)))
	var n int64
	k, err := w.Write(cnt[:])
	n += int64(k)
	if err != nil {
		return n, err
	}
	for _, f := range mc.Classes {
		kk, err := f.WriteTo(w)
		n += kk
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// ReadMultiClassForest deserializes a classifier written by WriteTo.
func ReadMultiClassForest(r io.Reader) (*MultiClassForest, error) {
	var cnt [4]byte
	if _, err := io.ReadFull(r, cnt[:]); err != nil {
		return nil, fmt.Errorf("ml: multiclass header: %w", err)
	}
	nc := binary.LittleEndian.Uint32(cnt[:])
	if nc == 0 || nc > 1<<12 {
		return nil, fmt.Errorf("ml: implausible class count %d", nc)
	}
	mc := &MultiClassForest{}
	for c := uint32(0); c < nc; c++ {
		f, err := ReadForest(r)
		if err != nil {
			return nil, err
		}
		mc.Classes = append(mc.Classes, f)
	}
	return mc, nil
}
