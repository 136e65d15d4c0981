package oven

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"pretzel/internal/ops"
	"pretzel/internal/pipeline"
	"pretzel/internal/plan"
	"pretzel/internal/schema"
	"pretzel/internal/store"
	"pretzel/internal/text"
)

// Options configure compilation.
type Options struct {
	// Materialization compiles shared featurization prefixes into
	// cacheable stages instead of pushing linear models through them,
	// enabling sub-plan materialization (§4.3).
	Materialization bool

	// Plans, when non-nil, is the plan store: compiled stages are
	// interned by structural signature so structurally identical
	// pipelines share whole physical stages — one kernel, one metrics
	// block, one materialization identity — not just parameters. Plans
	// compiled through a store must be released with ReleasePlan.
	Plans *plan.StageStore
}

// DefaultOptions returns the standard configuration: no sub-plan
// materialization and no plan store.
func DefaultOptions() Options { return Options{} }

// Compile turns a trained pipeline into a PRETZEL model plan: parameters
// are interned in the Object Store, the transformation graph is rewritten
// into a stage graph by the four optimizer steps, and each logical stage
// is mapped to a physical kernel by the Model Plan Compiler.
func Compile(p *pipeline.Pipeline, objStore *store.ObjectStore, opts Options) (*plan.Plan, error) {
	// Step 1 — InputGraphValidatorStep.
	if err := validateInput(p); err != nil {
		return nil, err
	}

	// Object Store interning: new parameters are kept, already-present
	// ones are dropped in favour of the canonical instance (§4.1.3).
	// The canonical instances are remembered for the plan so an eviction
	// can release exactly what was interned — and so a failure on any
	// later compile step can give the references back instead of
	// stranding refcounts (and bytes) in the store forever.
	var interned []ops.Param
	compiled := false
	if objStore != nil {
		defer func() {
			if !compiled {
				ReleaseInterned(objStore, interned)
			}
		}()
		for i, n := range p.Nodes {
			ps := n.Op.Params()
			if len(ps) == 0 {
				continue
			}
			shared := make([]ops.Param, len(ps))
			canonical := true
			for k, q := range ps {
				shared[k] = objStore.Intern(q)
				canonical = canonical && shared[k] == q
			}
			// Track before SetParams: a failure there still leaves the
			// refcounts incremented, and Release finds a canonical
			// instance by identity, so releasing them undoes it exactly.
			interned = append(interned, shared...)
			// An operator that already holds the canonical instances,
			// such as one taken from the raw index and shared with other
			// plans, is never written to.
			if canonical {
				continue
			}
			if n.Shared {
				// Taken from the raw index, then its parameters were
				// released to zero and equal ones interned anew: other
				// imports may hold it too, so rewire a private copy.
				op, err := cloneOp(n.Op)
				if err != nil {
					return nil, fmt.Errorf("oven: interning node %d: %w", i, err)
				}
				p.Nodes[i].Op, p.Nodes[i].Shared = op, false
				n = p.Nodes[i]
			}
			if err := n.Op.SetParams(shared); err != nil {
				return nil, fmt.Errorf("oven: interning node %d: %w", i, err)
			}
		}
	}

	// Steps 2–4.
	g := newGraph(p, objStore, opts)
	for _, st := range []step{buildStep(), optimizerStep(opts)} {
		if err := st.run(g); err != nil {
			return nil, err
		}
	}
	if err := validateOutput(g); err != nil {
		return nil, err
	}

	// Model Plan Compiler: map logical stages to physical kernels and
	// assemble the plan.
	pl, err := assemble(p, g)
	if err != nil {
		return nil, err
	}
	pl.Interned = interned
	compiled = true
	// The parameters are interned now: index each operator under the raw
	// key it was imported by, so the next import of the same bytes takes
	// it without parsing.
	if objStore != nil {
		for _, n := range p.Nodes {
			if n.Raw != nil {
				objStore.RecordRaw(*n.Raw, n.Op)
			}
		}
	}
	return pl, nil
}

// cloneOp returns a private copy of op, parsed from its serialized form.
func cloneOp(op ops.Op) (ops.Op, error) {
	var buf bytes.Buffer
	if err := op.WriteParams(&buf); err != nil {
		return nil, err
	}
	return ops.Read(op.Info().Kind, &buf)
}

// ReleaseInterned returns a compiled plan's interned parameter
// references to the Object Store. Callers that fail AFTER a successful
// Compile — e.g. a version registration that errors — must call this
// (with the plan's Interned slice) or the refcounts and parameter
// bytes stay charged to the store with no plan owning them.
func ReleaseInterned(objStore *store.ObjectStore, interned []ops.Param) {
	if objStore == nil {
		return
	}
	for _, p := range interned {
		objStore.Release(p)
	}
}

// ReleasePlan returns every shared reference a compiled plan holds:
// the Object Store parameters AND the plan-store stage references.
// Once stage sharing is enabled (Options.Plans), every failure-after-
// Compile, unregister and eviction path must use this instead of
// ReleaseInterned alone, or shared stages leak in the plan store.
// Stages that were not interned (nil plans, foreign plans) are skipped
// by StageStore.Release, so the call is safe for any plan.
func ReleasePlan(objStore *store.ObjectStore, plans *plan.StageStore, pl *plan.Plan) {
	if pl == nil {
		return
	}
	ReleaseInterned(objStore, pl.Interned)
	if plans != nil {
		for _, s := range pl.Stages {
			plans.Release(s)
		}
	}
}

// stageSignature computes a stage's identity: the structural content
// signature it is interned under in the plan store. It captures
// everything that makes two compiled stages interchangeable: the
// physical kernel kind, compile options that shape kernel construction,
// the digests of the fused operators (kind, config, parameter content),
// the pushed-through weight block, and the stage's wiring inside the
// plan.
func (g *graphIR) stageSignature(n *snode, inputs []int) plan.Sig {
	h := sha256.New()
	var b8 [8]byte
	writeStr(h, kernelKindOf(n))
	flags := byte(0)
	if g.opts.Materialization {
		flags |= 1
	}
	if n.materializable {
		flags |= 2
	}
	if n.pushed {
		flags |= 4
	}
	if n.finisher {
		flags |= 8
	}
	h.Write([]byte{flags})
	binary.LittleEndian.PutUint64(b8[:], uint64(len(n.ops)))
	h.Write(b8[:])
	for _, op := range n.ops {
		d := g.opDigest(op)
		h.Write(d[:])
	}
	if n.pushed {
		var b4 [4]byte
		for _, w := range n.pushW {
			binary.LittleEndian.PutUint32(b4[:], math.Float32bits(w))
			h.Write(b4[:])
		}
		binary.LittleEndian.PutUint32(b4[:], math.Float32bits(n.pushBias))
		h.Write(b4[:])
		h.Write([]byte{byte(n.pushLink)})
	}
	binary.LittleEndian.PutUint64(b8[:], uint64(n.outCap))
	h.Write(b8[:])
	binary.LittleEndian.PutUint64(b8[:], uint64(len(inputs)))
	h.Write(b8[:])
	for _, in := range inputs {
		binary.LittleEndian.PutUint64(b8[:], uint64(int64(in)))
		h.Write(b8[:])
	}
	var sig plan.Sig
	h.Sum(sig[:0])
	return sig
}

// --- Step 4: OutputGraphValidatorStep ---

// validateOutput labels every stage with its output schema and pool
// capacity, then validates the final stage graph. It rewrites nothing,
// so it is one pass rather than a fixpoint step.
func validateOutput(g *graphIR) error {
	order, err := g.topo()
	if err != nil {
		return fmt.Errorf("oven: OutputGraphValidator: %w", err)
	}
	for _, n := range order {
		if len(n.ops) == 0 {
			return fmt.Errorf("oven: OutputGraphValidator: empty stage survived optimization")
		}
		if err := computeStageSchema(n); err != nil {
			return fmt.Errorf("oven: OutputGraphValidator: %w", err)
		}
		n.outCap = outCapOf(n)
	}
	return nil
}

// computeStageSchema derives the output schema of a stage.
func computeStageSchema(n *snode) error {
	switch {
	case n.pushed && !n.finisher:
		// The featurization result is absorbed into the accumulator; the
		// data output is the pass-through token list.
		n.schema = schema.Tokens("tokens")
		return nil
	case n.pushed && n.finisher:
		n.schema = schema.Scalar("prediction")
		return nil
	case n.materializable:
		dim := 0
		sparse := false
		for _, op := range n.ops {
			switch t := op.(type) {
			case *ops.CharNgram:
				dim += t.Dim()
				sparse = true
			case *ops.WordNgram:
				dim += t.Dim()
				sparse = true
			}
		}
		n.schema = schema.Vector("features", dim, sparse)
		return nil
	default:
		// Linear chain: propagate through the fused ops. The first op may
		// be multi-input; use its trained arity with unknown-vector
		// placeholders for schema purposes.
		var cur *schema.Schema
		for i, op := range n.ops {
			var ins []*schema.Schema
			if i == 0 {
				arity := op.Info().NInputs
				if arity < 1 {
					arity = 1
				}
				ins = make([]*schema.Schema, arity)
				for k := range ins {
					ins[k] = inputPlaceholder(op, k)
				}
			} else {
				ins = []*schema.Schema{cur}
			}
			out, err := op.OutSchema(ins)
			if err != nil {
				return fmt.Errorf("stage schema (%s): %w", op.Info().Kind, err)
			}
			cur = out
		}
		n.schema = cur
		return nil
	}
}

// inputPlaceholder fabricates a schema matching what op expects on input
// k (stage inputs were validated in step 1; this only recomputes shapes).
func inputPlaceholder(op ops.Op, k int) *schema.Schema {
	switch t := op.(type) {
	case *ops.Tokenizer, *ops.ParseFloats:
		return schema.Text("in")
	case *ops.CharNgram, *ops.WordNgram:
		return schema.Tokens("in")
	case *ops.Concat:
		return schema.Vector("in", t.Dims[k], true)
	default:
		return schema.Vector("in", 0, false)
	}
}

// outCapOf sizes the pool request for a stage output (§4.1.1: statistics
// such as max vector size "define the minimum size of vectors to fetch
// from the pool at prediction time").
func outCapOf(n *snode) int {
	c, err := n.schema.Single()
	if err != nil {
		return 64
	}
	switch c.Kind {
	case schema.ColScalar:
		return 1
	case schema.ColTokens:
		return 0 // arena-backed; dense buffer unused
	case schema.ColVector:
		if c.Sparse {
			return 256
		}
		if c.Dim > 0 && c.Dim < 4096 {
			return c.Dim
		}
		return 4096
	default:
		return 64
	}
}

// kernelKindOf names the physical implementation a stage maps to.
func kernelKindOf(n *snode) string {
	switch {
	case n.pushed && n.finisher:
		return "sa-tail"
	case n.pushed:
		return "sa-head"
	case n.materializable:
		return "sa-featurize"
	case n.kindsAre("LinearPredictor"):
		return "linear-score"
	case n.kindsAre("Concat"):
		return "concat"
	default:
		return "generic"
	}
}

// --- Model Plan Compiler ---

// buildKernel constructs the physical kernel of a stage (the logical →
// physical mapping, selected from stage parameters and statistics).
func buildKernel(n *snode) (plan.Kernel, error) {
	switch kernelKindOf(n) {
	case "sa-head":
		var char *ops.CharNgram
		tokenize := false
		for _, op := range n.ops {
			switch t := op.(type) {
			case *ops.CharNgram:
				char = t
			case *ops.Tokenizer:
				tokenize = true
			}
		}
		if char == nil {
			return nil, fmt.Errorf("oven: pushed head stage without CharNgram")
		}
		return &plan.SAHeadKernel{
			Char:     text.CharNgramConfig{MinN: char.MinN, MaxN: char.MaxN, Dict: char.Dict},
			Weights:  n.pushW,
			Tokenize: tokenize,
		}, nil
	case "sa-tail":
		var word *ops.WordNgram
		tokenize := false
		for _, op := range n.ops {
			switch t := op.(type) {
			case *ops.WordNgram:
				word = t
			case *ops.Tokenizer:
				tokenize = true
			}
		}
		if word == nil {
			return nil, fmt.Errorf("oven: pushed tail stage without WordNgram")
		}
		word.Dict.IndexWords()
		return &plan.SATailKernel{
			Word:     text.WordNgramConfig{MaxN: word.MaxN, Dict: word.Dict},
			Weights:  n.pushW,
			Bias:     n.pushBias,
			Link:     n.pushLink,
			Tokenize: tokenize,
		}, nil
	case "sa-featurize":
		var char *ops.CharNgram
		var word *ops.WordNgram
		for _, op := range n.ops {
			switch t := op.(type) {
			case *ops.CharNgram:
				char = t
			case *ops.WordNgram:
				word = t
			}
		}
		if char == nil || word == nil {
			return nil, fmt.Errorf("oven: materializable stage missing n-gram configs")
		}
		word.Dict.IndexWords()
		return &plan.FeaturizeKernel{
			Char:    text.CharNgramConfig{MinN: char.MinN, MaxN: char.MaxN, Dict: char.Dict},
			Word:    text.WordNgramConfig{MaxN: word.MaxN, Dict: word.Dict},
			CharDim: char.Dim(),
		}, nil
	case "linear-score":
		lp := n.ops[0].(*ops.LinearPredictor)
		return &plan.LinearScoreKernel{Model: lp.Model}, nil
	case "concat":
		return &plan.ConcatKernel{Op: n.ops[0].(*ops.Concat)}, nil
	default:
		return &plan.GenericKernel{Fused: n.ops}, nil
	}
}

// assemble produces the final plan from the optimized stage graph.
// Every stage is identified by its structural signature. With a plan
// store configured (opts.Plans), each stage is interned under it: a
// structurally identical stage compiled before is reused — its kernel,
// metrics and materialization identity — and only genuinely new stages
// are built.
func assemble(p *pipeline.Pipeline, g *graphIR) (*plan.Plan, error) {
	opts := g.opts
	order, err := g.topo()
	if err != nil {
		return nil, err
	}
	index := make(map[*snode]int, len(order))
	for i, n := range order {
		index[n] = i
	}
	pl := &plan.Plan{Name: p.Name}
	// On any failure the stage references interned so far must go back
	// to the plan store, or they leak refcounts no plan owns.
	fail := func(err error) (*plan.Plan, error) {
		if opts.Plans != nil {
			for _, s := range pl.Stages {
				opts.Plans.Release(s)
			}
		}
		return nil, err
	}
	for _, n := range order {
		kind := kernelKindOf(n)
		inputs := make([]int, 0, len(n.inputs))
		for _, in := range n.inputs {
			if in == nil {
				inputs = append(inputs, plan.InputID)
			} else {
				idx, ok := index[in]
				if !ok {
					return fail(fmt.Errorf("oven: dangling stage input"))
				}
				inputs = append(inputs, idx)
			}
		}
		sig := g.stageSignature(n, inputs)
		build := func() (*plan.Stage, error) {
			k, err := buildKernel(n)
			if err != nil {
				return nil, err
			}
			return &plan.Stage{
				ID:             binary.LittleEndian.Uint64(sig[:8]),
				Sig:            sig,
				Ops:            n.ops,
				Inputs:         inputs,
				OutCap:         n.outCap,
				Kern:           k,
				Materializable: n.materializable,
				UsesAcc:        kind == "sa-head" || kind == "sa-tail",
			}, nil
		}
		var st *plan.Stage
		if opts.Plans != nil {
			st, _, err = opts.Plans.Intern(sig, build)
		} else {
			st, err = build()
		}
		if err != nil {
			return fail(err)
		}
		pl.Stages = append(pl.Stages, st)
	}
	if err := pl.Validate(); err != nil {
		return fail(err)
	}
	return pl, nil
}
