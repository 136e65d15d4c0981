// Package flour implements PRETZEL's language-integrated API (§4.1.1): a
// lazily-evaluated, fluent DSL in which sequences of transformations are
// chained into DAGs and compiled into model plans by Oven. It mirrors the
// paper's Listing 1:
//
//	fc := flour.NewContext(objectStore)
//	tok := fc.Text().Tokenize()
//	cn  := tok.CharNgram(charDict, 2, 3)
//	wn  := tok.WordNgram(wordDict, 2)
//	prg := cn.Concat(wn).ClassifierBinaryLinear(model)
//	pln, err := prg.Plan("sa", oven.DefaultOptions())
//
// Each transformation records its output dimensionality in the program's
// statistics; the compiler uses them to size pools.
package flour

import (
	"fmt"

	"pretzel/internal/ml"
	"pretzel/internal/ops"
	"pretzel/internal/oven"
	"pretzel/internal/pipeline"
	"pretzel/internal/plan"
	"pretzel/internal/schema"
	"pretzel/internal/store"
	"pretzel/internal/text"
)

// Context wraps the Object Store that compiled plans intern their
// parameters into (the FlourContext of Listing 1).
type Context struct {
	Store *store.ObjectStore
}

// NewContext builds a Flour context over an Object Store (may be nil for
// standalone plans).
func NewContext(s *store.ObjectStore) *Context { return &Context{Store: s} }

// program is the shared DAG state threaded through a chain of transforms.
type program struct {
	ctx     *Context
	nodes   []pipeline.Node
	schemas []*schema.Schema
	input   *schema.Schema
	stats   pipeline.Stats
	err     error
}

// Transform is one node of the lazily-built DAG. Methods return new
// transforms; the underlying program is shared so branches compose.
type Transform struct {
	prg  *program
	node int // producing node id; pipeline.InputID for the source
}

// fail records the first error; later calls keep the chain fluent.
func (p *program) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

// append adds an operator node reading from the given producers.
func (t *Transform) append(op ops.Op, inputs ...int) *Transform {
	p := t.prg
	if p.err != nil {
		return &Transform{prg: p, node: t.node}
	}
	ins := make([]*schema.Schema, len(inputs))
	for i, src := range inputs {
		if src == pipeline.InputID {
			ins[i] = p.input
		} else {
			ins[i] = p.schemas[src]
		}
	}
	out, err := op.OutSchema(ins)
	if err != nil {
		p.fail(fmt.Errorf("flour: %s: %w", op.Info().Kind, err))
		return &Transform{prg: p, node: t.node}
	}
	p.nodes = append(p.nodes, pipeline.Node{Op: op, Inputs: append([]int{}, inputs...)})
	p.schemas = append(p.schemas, out)
	if c, err := out.Single(); err == nil && c.Dim > p.stats.MaxVectorSize {
		p.stats.MaxVectorSize = c.Dim
	}
	return &Transform{prg: p, node: len(p.nodes) - 1}
}

// --- sources ---

// Text starts a program whose input is a raw text column.
func (c *Context) Text() *Transform {
	p := &program{ctx: c, input: schema.Text("Text")}
	return &Transform{prg: p, node: pipeline.InputID}
}

// Floats starts a program whose input is a delimited numeric line parsed
// into a dense vector of the given dimensionality.
func (c *Context) Floats(sep byte, dim int) *Transform {
	p := &program{ctx: c, input: schema.Text("line")}
	t := &Transform{prg: p, node: pipeline.InputID}
	return t.append(&ops.ParseFloats{Sep: sep, Dim: dim}, pipeline.InputID)
}

// --- transformations ---

// Tokenize splits text into lowercase tokens.
func (t *Transform) Tokenize() *Transform {
	return t.append(&ops.Tokenizer{}, t.node)
}

// CharNgram extracts dictionary-mapped character n-grams.
func (t *Transform) CharNgram(dict *text.Dict, minN, maxN int) *Transform {
	return t.append(&ops.CharNgram{MinN: minN, MaxN: maxN, Dict: dict}, t.node)
}

// WordNgram extracts dictionary-mapped word n-grams.
func (t *Transform) WordNgram(dict *text.Dict, maxN int) *Transform {
	return t.append(&ops.WordNgram{MaxN: maxN, Dict: dict}, t.node)
}

// Concat concatenates this transform's vector with the others'.
func (t *Transform) Concat(others ...*Transform) *Transform {
	p := t.prg
	inputs := []int{t.node}
	dims := []int{t.dim()}
	for _, o := range others {
		if o.prg != p {
			p.fail(fmt.Errorf("flour: Concat across different programs"))
			return &Transform{prg: p, node: t.node}
		}
		inputs = append(inputs, o.node)
		dims = append(dims, o.dim())
	}
	return t.append(&ops.Concat{Dims: dims}, inputs...)
}

// dim returns the vector dimensionality of this transform's output.
func (t *Transform) dim() int {
	if t.node == pipeline.InputID {
		return 0
	}
	if c, err := t.prg.schemas[t.node].Single(); err == nil {
		return c.Dim
	}
	return 0
}

// PCA projects onto trained principal components.
func (t *Transform) PCA(model *ml.PCA) *Transform {
	return t.append(&ops.PCATransform{Model: model}, t.node)
}

// KMeans maps to squared distances from trained centroids.
func (t *Transform) KMeans(model *ml.KMeans) *Transform {
	return t.append(&ops.KMeansTransform{Model: model}, t.node)
}

// TreeFeaturize maps to leaf one-hots of a trained forest.
func (t *Transform) TreeFeaturize(forest *ml.Forest) *Transform {
	return t.append(ops.NewTreeFeaturize(forest), t.node)
}

// --- predictors ---

// ClassifierBinaryLinear appends a linear binary classifier.
func (t *Transform) ClassifierBinaryLinear(model *ml.LinearModel) *Transform {
	return t.append(&ops.LinearPredictor{Model: model}, t.node)
}

// ForestRegressor appends a forest regressor.
func (t *Transform) ForestRegressor(model *ml.Forest) *Transform {
	return t.append(&ops.ForestPredictor{Model: model}, t.node)
}

// --- planning ---

// Pipeline wraps the transformations leading to t as a named pipeline
// (the reference, uncompiled representation).
func (t *Transform) Pipeline(name string) (*pipeline.Pipeline, error) {
	p := t.prg
	if p.err != nil {
		return nil, p.err
	}
	if t.node == pipeline.InputID {
		return nil, fmt.Errorf("flour: empty program")
	}
	if t.node != len(p.nodes)-1 {
		return nil, fmt.Errorf("flour: Plan must be called on the final transform of the program")
	}
	pipe := &pipeline.Pipeline{
		Name:        name,
		Nodes:       append([]pipeline.Node{}, p.nodes...),
		InputSchema: p.input,
		Stats:       p.stats,
	}
	if _, err := pipe.Validate(); err != nil {
		return nil, err
	}
	return pipe, nil
}

// Plan wraps, optimizes and compiles the program into a model plan ready
// for registration in the Runtime (the paper's fPrgrm.Plan()).
func (t *Transform) Plan(name string, opts oven.Options) (*plan.Plan, error) {
	pipe, err := t.Pipeline(name)
	if err != nil {
		return nil, err
	}
	var os *store.ObjectStore
	if t.prg.ctx != nil {
		os = t.prg.ctx.Store
	}
	return oven.Compile(pipe, os, opts)
}
