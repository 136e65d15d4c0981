package oven

import (
	"fmt"
	"slices"

	"pretzel/internal/ops"
	"pretzel/internal/pipeline"
	"pretzel/internal/schema"
)

// --- Step 1: InputGraphValidatorStep (operates on the input pipeline) ---

// validateInput runs the three input-validation rules: schema
// propagation, schema validation and graph validation. They operate on
// the transformation graph (the pipeline) before stages exist.
func validateInput(p *pipeline.Pipeline) error {
	// Rules 1+2 — schema propagation and per-transformation validation:
	// Validate propagates schemas edge-by-edge and each operator's
	// OutSchema enforces its input kinds.
	out, err := p.Validate()
	if err != nil {
		return fmt.Errorf("oven: input validation: %w", err)
	}
	// Rule 3 — graph validation: the DAG must end in a predictor-like
	// output (a scalar or a probability vector) and every node must be
	// reachable from the output.
	c, err := out.Single()
	if err != nil {
		return fmt.Errorf("oven: graph validation: output must be a single column: %w", err)
	}
	if c.Kind != schema.ColScalar && c.Kind != schema.ColVector {
		return fmt.Errorf("oven: graph validation: output must be scalar or vector, got %s", c.Kind)
	}
	reach := make([]bool, len(p.Nodes))
	var mark func(i int)
	mark = func(i int) {
		if i == pipeline.InputID || reach[i] {
			return
		}
		reach[i] = true
		for _, in := range p.Nodes[i].Inputs {
			mark(in)
		}
	}
	mark(p.Output())
	for i, r := range reach {
		if !r {
			return fmt.Errorf("oven: graph validation: node %d (%s) unreachable from output",
				i, p.Nodes[i].Op.Info().Kind)
		}
	}
	return nil
}

// --- Step 2: StageGraphBuilderStep ---

// buildStep returns the stage-graph-builder rule that runs to fixpoint
// over the initial stages newGraph builds.
func buildStep() step {
	return step{name: "StageGraphBuilder", rules: []rule{
		// FuseMemoryBoundChains pipelines memory-intensive 1-to-1
		// transformations into a single pass over the data (the
		// Tupleware-style hybrid policy): A -> B fuse when A is
		// memory-bound and breaker-free, B is memory-bound with a single
		// input, and A's only consumer is B.
		{name: "FuseMemoryBoundChains", apply: func(g *graphIR) (bool, error) {
			for _, a := range g.nodes {
				if !a.isMemoryBound() || a.hasBreaker() || a.pushed {
					continue
				}
				cons := g.consumers(a)
				if len(cons) != 1 || a == g.output {
					continue
				}
				b := cons[0]
				if !b.isMemoryBound() || len(b.inputs) != 1 || b.pushed {
					continue
				}
				// Breaker-headed stages may absorb upstream memory-bound
				// work, but nothing fuses after a breaker inside b.
				b.ops = append(append([]ops.Op{}, a.ops...), b.ops...)
				b.inputs = a.inputs
				g.remove(a)
				return true, nil
			}
			return false, nil
		}},
	}}
}

// --- Step 3: StageGraphOptimizerStep (5 rules) ---

// optimizerStep returns the five optimizer rules. None of them strands a
// stage (step 1 refuses a node the output cannot reach), empties one, or
// fuses a compute-bound operator beside another (every fusing rule joins
// memory-bound stages only), so the step needs no dead-stage, empty-stage
// or isolation rule.
func optimizerStep(opts Options) step {
	return step{name: "StageGraphOptimizer", rules: []rule{
		{name: "MergeEqualStages", apply: ruleMergeEqualStages},
		{name: "MergeFeaturizersForMaterialization", apply: func(g *graphIR) (bool, error) {
			if !opts.Materialization {
				return false, nil
			}
			return ruleMergeFeaturizers(g)
		}},
		{name: "PushLinearThroughConcat", apply: func(g *graphIR) (bool, error) {
			if opts.Materialization {
				// The materializable flavor keeps featurization separate
				// so its output can be cached across plans (§4.3); the
				// pushdown would specialize it per plan.
				return false, nil
			}
			return rulePushLinearThroughConcat(g)
		}},
		{name: "SharedPrefixInline", apply: ruleSharedPrefixInline},
		{name: "InlineSingleTransformStages", apply: ruleInlineSingleTransform},
	}}
}

// ruleMergeEqualStages merges stages containing equal transformations
// with equal inputs (often generated by traversing graphs with branches).
func ruleMergeEqualStages(g *graphIR) (bool, error) {
	for i, a := range g.nodes {
		for _, b := range g.nodes[i+1:] {
			if a.pushed || b.pushed || len(a.ops) != len(b.ops) || len(a.inputs) != len(b.inputs) {
				continue
			}
			same := true
			for k := range a.ops {
				if g.opDigest(a.ops[k]) != g.opDigest(b.ops[k]) {
					same = false
					break
				}
			}
			for k := range a.inputs {
				if a.inputs[k] != b.inputs[k] {
					same = false
					break
				}
			}
			if !same {
				continue
			}
			g.replaceInput(b, a)
			if g.output == b {
				g.output = a
			}
			g.remove(b)
			return true, nil
		}
	}
	return false, nil
}

// rulePushLinearThroughConcat pushes a linear model through a Concat:
// each concat branch receives its weight block as a partial dot product,
// the Concat and the predictor stages disappear, and the last branch
// becomes the finisher applying bias and link (§4.1.2: "pushing linear
// models through Concat operations" + "removal of unnecessary stages").
func rulePushLinearThroughConcat(g *graphIR) (bool, error) {
	for _, cc := range g.nodes {
		if len(cc.ops) != 1 || cc.ops[0].Info().Kind != "Concat" {
			continue
		}
		concat := cc.ops[0].(*ops.Concat)
		cons := g.consumers(cc)
		if len(cons) != 1 {
			continue
		}
		pred := cons[0]
		if !pred.kindsAre("LinearPredictor") {
			continue
		}
		lp := pred.ops[0].(*ops.LinearPredictor)
		// Every branch must be a pushable featurizer stage.
		branches := cc.inputs
		if len(branches) != len(concat.Dims) {
			continue
		}
		// A branch read twice (MergeEqualStages joined two equal ones)
		// would be chained onto itself below.
		pushable := true
		for i, b := range branches {
			if b == nil || b.pushed || !isPushableBranch(b) || slices.Contains(branches[:i], b) {
				pushable = false
				break
			}
		}
		if !pushable {
			continue
		}
		off := 0
		for i, b := range branches {
			b.pushW = lp.Model.Weights[off : off+concat.Dims[i]]
			b.pushed = true
			off += concat.Dims[i]
		}
		last := branches[len(branches)-1]
		last.finisher = true
		last.pushBias = lp.Model.Bias
		last.pushLink = lp.Model.Kind
		// Chain the branches so partial accumulations are ordered:
		// branch i+1 additionally depends on branch i.
		for i := 1; i < len(branches); i++ {
			branches[i].inputs = append(branches[i].inputs, branches[i-1])
		}
		// The finisher replaces concat+predictor as (possibly) the output.
		g.replaceInput(pred, last)
		if g.output == pred {
			g.output = last
		}
		g.remove(cc)
		g.remove(pred)
		return true, nil
	}
	return false, nil
}

// isPushableBranch recognizes featurizer stages the compiler has partial
// -dot kernels for.
func isPushableBranch(n *snode) bool {
	return n.kindsAre("CharNgram") || n.kindsAre("WordNgram") ||
		n.kindsAre("Tokenizer", "CharNgram") || n.kindsAre("Tokenizer", "WordNgram")
}

// ruleSharedPrefixInline pipelines a shared prefix stage (e.g. Tokenizer)
// into its first pushed consumer: the prefix's other consumers are
// rewired to read the fused stage's pass-through output. This produces
// the paper's 2-stage SA plan: "Tokenizer ... will be pipelined with
// CharNgram (in one stage) and a dependency between CharNgram and
// WordNgram (in another stage) will be created."
func ruleSharedPrefixInline(g *graphIR) (bool, error) {
	for _, p := range g.nodes {
		if !p.isMemoryBound() || p.hasBreaker() || p.pushed || p == g.output {
			continue
		}
		cons := g.consumers(p)
		if len(cons) < 2 {
			continue
		}
		// All consumers must be pushed featurizer stages reading only p
		// (plus pushdown-ordering edges).
		var target *snode
		allPushed := true
		for _, c := range cons {
			if !c.pushed {
				allPushed = false
				break
			}
			if c.inputs[0] == p && target == nil {
				target = c
			}
		}
		if !allPushed || target == nil {
			continue
		}
		// Fuse p into target; target's data output becomes p's output
		// (its own featurization is absorbed into the accumulator).
		target.ops = append(append([]ops.Op{}, p.ops...), target.ops...)
		target.inputs[0] = p.inputs[0]
		for _, c := range cons {
			if c == target {
				continue
			}
			for i, in := range c.inputs {
				if in == p {
					c.inputs[i] = target
				}
			}
			dedupeInputs(c)
		}
		g.remove(p)
		return true, nil
	}
	return false, nil
}

// ruleInlineSingleTransform inlines stages that contain only one
// transform into their single consumer when both sides are memory-bound
// (§4.1.2 rule 3). It complements FuseMemoryBoundChains after other rules
// reshaped the graph.
func ruleInlineSingleTransform(g *graphIR) (bool, error) {
	for _, a := range g.nodes {
		if len(a.ops) != 1 || !a.isMemoryBound() || a.hasBreaker() || a.pushed || a == g.output {
			continue
		}
		cons := g.consumers(a)
		if len(cons) != 1 {
			continue
		}
		b := cons[0]
		if b.pushed || !b.isMemoryBound() || len(b.inputs) != 1 {
			continue
		}
		b.ops = append(append([]ops.Op{}, a.ops...), b.ops...)
		b.inputs = a.inputs
		g.remove(a)
		return true, nil
	}
	return false, nil
}

// ruleMergeFeaturizers builds the materializable flavor: the whole SA
// featurization prefix (tokenizer + n-gram branches + concat) collapses
// into one cacheable stage whose identity depends only on the shared
// dictionaries, leaving the per-plan linear scorer separate.
func ruleMergeFeaturizers(g *graphIR) (bool, error) {
	for _, cc := range g.nodes {
		if len(cc.ops) != 1 || cc.ops[0].Info().Kind != "Concat" || len(cc.inputs) != 2 {
			continue
		}
		a, b := cc.inputs[0], cc.inputs[1]
		if a == nil || b == nil || !a.kindsAre("CharNgram") || !b.kindsAre("WordNgram") {
			continue
		}
		src := a.inputs[0]
		if src == nil || src != b.inputs[0] {
			continue
		}
		// The token source must end in a tokenizer and feed only the two
		// branches, and each branch only the Concat: otherwise fusing
		// would leave their work planned twice.
		if len(src.ops) == 0 || src.ops[len(src.ops)-1].Info().Kind != "Tokenizer" {
			continue
		}
		if len(g.consumers(src)) != 2 || len(g.consumers(a)) != 1 || len(g.consumers(b)) != 1 {
			continue
		}
		fused := append(append([]ops.Op{}, src.ops...), a.ops[0], b.ops[0], cc.ops[0])
		merged := &snode{ops: fused, materializable: true, inputs: src.inputs}
		g.nodes = append(g.nodes, merged)
		g.replaceInput(cc, merged)
		if g.output == cc {
			g.output = merged
		}
		g.remove(cc)
		g.remove(a)
		g.remove(b)
		g.remove(src)
		return true, nil
	}
	return false, nil
}

// dedupeInputs removes duplicate input edges introduced by rewiring (a
// pushdown ordering edge collapsing onto the data edge).
func dedupeInputs(n *snode) {
	seen := map[*snode]bool{}
	w := 0
	for _, in := range n.inputs {
		if in != nil && seen[in] {
			continue
		}
		seen[in] = true
		n.inputs[w] = in
		w++
	}
	n.inputs = n.inputs[:w]
}
