package ops

import (
	"fmt"
	"io"

	"pretzel/internal/ml"
	"pretzel/internal/schema"
	"pretzel/internal/vector"
)

// --- PCATransform ---

// PCATransform projects a dense vector onto trained principal components
// (compute-bound: a small dense GEMV).
type PCATransform struct {
	Model *ml.PCA `json:"-"`
}

// Info implements Op.
func (o *PCATransform) Info() Info {
	return Info{Kind: "PCATransform", NInputs: 1}
}

// OutSchema implements Op.
func (o *PCATransform) OutSchema(in []*schema.Schema) (*schema.Schema, error) {
	if len(in) != 1 {
		return nil, errInputs("PCATransform", 1, len(in))
	}
	c, err := in[0].Single()
	if err != nil {
		return nil, err
	}
	if c.Kind != schema.ColVector {
		return nil, &schema.MismatchError{Op: "PCATransform", Want: schema.ColVector, Got: c.Kind}
	}
	if c.Dim != 0 && c.Dim != o.Model.Dim {
		return nil, fmt.Errorf("ops: PCATransform trained on dim %d, input dim %d", o.Model.Dim, c.Dim)
	}
	return schema.Vector("pca", o.Model.K, false), nil
}

// Transform implements Op.
func (o *PCATransform) Transform(in []*vector.Vector, out *vector.Vector) error {
	if len(in) != 1 || in[0].Kind != vector.KindDense {
		return fmt.Errorf("ops: PCATransform needs one dense input")
	}
	d := out.UseDense(o.Model.K)
	o.Model.Project(in[0].Dense, d)
	return nil
}

// Params implements Op.
func (o *PCATransform) Params() []Param { return []Param{o.Model} }

// SetParams implements Op.
func (o *PCATransform) SetParams(ps []Param) error {
	if len(ps) != 1 {
		return fmt.Errorf("ops: PCATransform takes 1 param, got %d", len(ps))
	}
	m, ok := ps[0].(*ml.PCA)
	if !ok {
		return fmt.Errorf("ops: PCATransform param must be *ml.PCA, got %T", ps[0])
	}
	o.Model = m
	return nil
}

// WriteParams implements Op.
func (o *PCATransform) WriteParams(w io.Writer) error {
	if err := writeJSONFrame(w, o); err != nil {
		return err
	}
	_, err := o.Model.WriteTo(w)
	return err
}

func init() {
	register("PCATransform", func(r io.Reader) (Op, error) {
		o := &PCATransform{}
		if err := readJSONFrame(r, o); err != nil {
			return nil, err
		}
		m, err := ml.ReadPCA(r)
		if err != nil {
			return nil, err
		}
		o.Model = m
		return o, nil
	})
}

// --- KMeansTransform ---

// KMeansTransform maps a dense vector to its squared distances to the
// trained centroids (compute-bound).
type KMeansTransform struct {
	Model *ml.KMeans `json:"-"`
}

// Info implements Op.
func (o *KMeansTransform) Info() Info {
	return Info{Kind: "KMeansTransform", NInputs: 1}
}

// OutSchema implements Op.
func (o *KMeansTransform) OutSchema(in []*schema.Schema) (*schema.Schema, error) {
	if len(in) != 1 {
		return nil, errInputs("KMeansTransform", 1, len(in))
	}
	c, err := in[0].Single()
	if err != nil {
		return nil, err
	}
	if c.Kind != schema.ColVector {
		return nil, &schema.MismatchError{Op: "KMeansTransform", Want: schema.ColVector, Got: c.Kind}
	}
	if c.Dim != 0 && c.Dim != o.Model.Dim {
		return nil, fmt.Errorf("ops: KMeansTransform trained on dim %d, input dim %d", o.Model.Dim, c.Dim)
	}
	return schema.Vector("kmeans", o.Model.K, false), nil
}

// Transform implements Op.
func (o *KMeansTransform) Transform(in []*vector.Vector, out *vector.Vector) error {
	if len(in) != 1 || in[0].Kind != vector.KindDense {
		return fmt.Errorf("ops: KMeansTransform needs one dense input")
	}
	d := out.UseDense(o.Model.K)
	o.Model.Distances(in[0].Dense, d)
	return nil
}

// Params implements Op.
func (o *KMeansTransform) Params() []Param { return []Param{o.Model} }

// SetParams implements Op.
func (o *KMeansTransform) SetParams(ps []Param) error {
	if len(ps) != 1 {
		return fmt.Errorf("ops: KMeansTransform takes 1 param, got %d", len(ps))
	}
	m, ok := ps[0].(*ml.KMeans)
	if !ok {
		return fmt.Errorf("ops: KMeansTransform param must be *ml.KMeans, got %T", ps[0])
	}
	o.Model = m
	return nil
}

// WriteParams implements Op.
func (o *KMeansTransform) WriteParams(w io.Writer) error {
	if err := writeJSONFrame(w, o); err != nil {
		return err
	}
	_, err := o.Model.WriteTo(w)
	return err
}

func init() {
	register("KMeansTransform", func(r io.Reader) (Op, error) {
		o := &KMeansTransform{}
		if err := readJSONFrame(r, o); err != nil {
			return nil, err
		}
		m, err := ml.ReadKMeans(r)
		if err != nil {
			return nil, err
		}
		o.Model = m
		return o, nil
	})
}

// --- TreeFeaturize ---

// TreeFeaturize maps a dense vector to the sparse one-hot encoding of the
// leaves it reaches in a trained forest.
type TreeFeaturize struct {
	feat   *ml.TreeFeaturizer
	Forest *ml.Forest `json:"-"`
}

// NewTreeFeaturize wraps a trained forest.
func NewTreeFeaturize(f *ml.Forest) *TreeFeaturize {
	return &TreeFeaturize{Forest: f, feat: ml.NewTreeFeaturizer(f)}
}

// Info implements Op.
func (o *TreeFeaturize) Info() Info {
	return Info{Kind: "TreeFeaturize", NInputs: 1}
}

// OutSchema implements Op.
func (o *TreeFeaturize) OutSchema(in []*schema.Schema) (*schema.Schema, error) {
	if len(in) != 1 {
		return nil, errInputs("TreeFeaturize", 1, len(in))
	}
	c, err := in[0].Single()
	if err != nil {
		return nil, err
	}
	if c.Kind != schema.ColVector {
		return nil, &schema.MismatchError{Op: "TreeFeaturize", Want: schema.ColVector, Got: c.Kind}
	}
	return schema.Vector("leaves", o.feat.Dim(), false), nil
}

// Transform implements Op. The leaf one-hots are emitted densely so the
// output can feed tree ensembles downstream (leaf counts are moderate).
func (o *TreeFeaturize) Transform(in []*vector.Vector, out *vector.Vector) error {
	if len(in) != 1 || in[0].Kind != vector.KindDense {
		return fmt.Errorf("ops: TreeFeaturize needs one dense input")
	}
	d := out.UseDense(o.feat.Dim())
	o.feat.Featurize(in[0].Dense, func(ix int32, v float32) { d[ix] = v })
	return nil
}

// Params implements Op.
func (o *TreeFeaturize) Params() []Param { return []Param{o.Forest} }

// SetParams implements Op.
func (o *TreeFeaturize) SetParams(ps []Param) error {
	if len(ps) != 1 {
		return fmt.Errorf("ops: TreeFeaturize takes 1 param, got %d", len(ps))
	}
	f, ok := ps[0].(*ml.Forest)
	if !ok {
		return fmt.Errorf("ops: TreeFeaturize param must be *ml.Forest, got %T", ps[0])
	}
	o.Forest = f
	o.feat = ml.NewTreeFeaturizer(f)
	return nil
}

// WriteParams implements Op.
func (o *TreeFeaturize) WriteParams(w io.Writer) error {
	if err := writeJSONFrame(w, o); err != nil {
		return err
	}
	_, err := o.Forest.WriteTo(w)
	return err
}

func init() {
	register("TreeFeaturize", func(r io.Reader) (Op, error) {
		o := &TreeFeaturize{}
		if err := readJSONFrame(r, o); err != nil {
			return nil, err
		}
		f, err := ml.ReadForest(r)
		if err != nil {
			return nil, err
		}
		o.Forest = f
		o.feat = ml.NewTreeFeaturizer(f)
		return o, nil
	})
}

// --- LinearPredictor ---

// LinearPredictor scores a feature vector with a trained linear model.
// It is commutative+associative over concatenation (a dot product), which
// lets the optimizer push it through Concat (§4.1.2 rule 4).
type LinearPredictor struct {
	Model *ml.LinearModel `json:"-"`
}

// Info implements Op.
func (o *LinearPredictor) Info() Info {
	return Info{Kind: "LinearPredictor", NInputs: 1}
}

// OutSchema implements Op.
func (o *LinearPredictor) OutSchema(in []*schema.Schema) (*schema.Schema, error) {
	if len(in) != 1 {
		return nil, errInputs("LinearPredictor", 1, len(in))
	}
	c, err := in[0].Single()
	if err != nil {
		return nil, err
	}
	if c.Kind != schema.ColVector {
		return nil, &schema.MismatchError{Op: "LinearPredictor", Want: schema.ColVector, Got: c.Kind}
	}
	if c.Dim != 0 && c.Dim != o.Model.Dim() {
		return nil, fmt.Errorf("ops: LinearPredictor trained on dim %d, input dim %d", o.Model.Dim(), c.Dim)
	}
	return schema.Scalar("prediction"), nil
}

// Transform implements Op.
func (o *LinearPredictor) Transform(in []*vector.Vector, out *vector.Vector) error {
	if len(in) != 1 {
		return errInputs("LinearPredictor", 1, len(in))
	}
	var score float32
	switch in[0].Kind {
	case vector.KindDense:
		score = o.Model.Score(in[0].Dense)
	case vector.KindSparse:
		score = o.Model.ScoreSparse(in[0].Idx, in[0].Val)
	default:
		return fmt.Errorf("ops: LinearPredictor needs a vector input, got %s", in[0].Kind)
	}
	d := out.UseDense(1)
	d[0] = score
	return nil
}

// Params implements Op.
func (o *LinearPredictor) Params() []Param { return []Param{o.Model} }

// SetParams implements Op.
func (o *LinearPredictor) SetParams(ps []Param) error {
	if len(ps) != 1 {
		return fmt.Errorf("ops: LinearPredictor takes 1 param, got %d", len(ps))
	}
	m, ok := ps[0].(*ml.LinearModel)
	if !ok {
		return fmt.Errorf("ops: LinearPredictor param must be *ml.LinearModel, got %T", ps[0])
	}
	o.Model = m
	return nil
}

// WriteParams implements Op.
func (o *LinearPredictor) WriteParams(w io.Writer) error {
	if err := writeJSONFrame(w, o); err != nil {
		return err
	}
	_, err := o.Model.WriteTo(w)
	return err
}

func init() {
	register("LinearPredictor", func(r io.Reader) (Op, error) {
		o := &LinearPredictor{}
		if err := readJSONFrame(r, o); err != nil {
			return nil, err
		}
		m, err := ml.ReadLinearModel(r)
		if err != nil {
			return nil, err
		}
		o.Model = m
		return o, nil
	})
}

// --- ForestPredictor ---

// ForestPredictor scores a dense feature vector with a trained forest.
type ForestPredictor struct {
	Model *ml.Forest `json:"-"`
}

// Info implements Op.
func (o *ForestPredictor) Info() Info {
	return Info{Kind: "ForestPredictor", NInputs: 1}
}

// OutSchema implements Op.
func (o *ForestPredictor) OutSchema(in []*schema.Schema) (*schema.Schema, error) {
	if len(in) != 1 {
		return nil, errInputs("ForestPredictor", 1, len(in))
	}
	c, err := in[0].Single()
	if err != nil {
		return nil, err
	}
	if c.Kind != schema.ColVector {
		return nil, &schema.MismatchError{Op: "ForestPredictor", Want: schema.ColVector, Got: c.Kind}
	}
	return schema.Scalar("prediction"), nil
}

// Transform implements Op.
func (o *ForestPredictor) Transform(in []*vector.Vector, out *vector.Vector) error {
	if len(in) != 1 || in[0].Kind != vector.KindDense {
		return fmt.Errorf("ops: ForestPredictor needs one dense input")
	}
	d := out.UseDense(1)
	d[0] = o.Model.Predict(in[0].Dense)
	return nil
}

// Params implements Op.
func (o *ForestPredictor) Params() []Param { return []Param{o.Model} }

// SetParams implements Op.
func (o *ForestPredictor) SetParams(ps []Param) error {
	if len(ps) != 1 {
		return fmt.Errorf("ops: ForestPredictor takes 1 param, got %d", len(ps))
	}
	m, ok := ps[0].(*ml.Forest)
	if !ok {
		return fmt.Errorf("ops: ForestPredictor param must be *ml.Forest, got %T", ps[0])
	}
	o.Model = m
	return nil
}

// WriteParams implements Op.
func (o *ForestPredictor) WriteParams(w io.Writer) error {
	if err := writeJSONFrame(w, o); err != nil {
		return err
	}
	_, err := o.Model.WriteTo(w)
	return err
}

func init() {
	register("ForestPredictor", func(r io.Reader) (Op, error) {
		o := &ForestPredictor{}
		if err := readJSONFrame(r, o); err != nil {
			return nil, err
		}
		m, err := ml.ReadForest(r)
		if err != nil {
			return nil, err
		}
		o.Model = m
		return o, nil
	})
}

// --- MultiClassPredictor ---

// MultiClassPredictor scores a dense vector with a one-vs-rest forest
// classifier, producing the per-class probability vector.
type MultiClassPredictor struct {
	Model *ml.MultiClassForest `json:"-"`
}

// Info implements Op.
func (o *MultiClassPredictor) Info() Info {
	return Info{Kind: "MultiClassPredictor", NInputs: 1}
}

// OutSchema implements Op.
func (o *MultiClassPredictor) OutSchema(in []*schema.Schema) (*schema.Schema, error) {
	if len(in) != 1 {
		return nil, errInputs("MultiClassPredictor", 1, len(in))
	}
	c, err := in[0].Single()
	if err != nil {
		return nil, err
	}
	if c.Kind != schema.ColVector {
		return nil, &schema.MismatchError{Op: "MultiClassPredictor", Want: schema.ColVector, Got: c.Kind}
	}
	return schema.Vector("classprobs", o.Model.NumClasses(), false), nil
}

// Transform implements Op.
func (o *MultiClassPredictor) Transform(in []*vector.Vector, out *vector.Vector) error {
	if len(in) != 1 || in[0].Kind != vector.KindDense {
		return fmt.Errorf("ops: MultiClassPredictor needs one dense input")
	}
	d := out.UseDense(o.Model.NumClasses())
	o.Model.Scores(in[0].Dense, d)
	return nil
}

// Params implements Op.
func (o *MultiClassPredictor) Params() []Param { return []Param{o.Model} }

// SetParams implements Op.
func (o *MultiClassPredictor) SetParams(ps []Param) error {
	if len(ps) != 1 {
		return fmt.Errorf("ops: MultiClassPredictor takes 1 param, got %d", len(ps))
	}
	m, ok := ps[0].(*ml.MultiClassForest)
	if !ok {
		return fmt.Errorf("ops: MultiClassPredictor param must be *ml.MultiClassForest, got %T", ps[0])
	}
	o.Model = m
	return nil
}

// WriteParams implements Op.
func (o *MultiClassPredictor) WriteParams(w io.Writer) error {
	if err := writeJSONFrame(w, o); err != nil {
		return err
	}
	_, err := o.Model.WriteTo(w)
	return err
}

func init() {
	register("MultiClassPredictor", func(r io.Reader) (Op, error) {
		o := &MultiClassPredictor{}
		if err := readJSONFrame(r, o); err != nil {
			return nil, err
		}
		m, err := ml.ReadMultiClassForest(r)
		if err != nil {
			return nil, err
		}
		o.Model = m
		return o, nil
	})
}
