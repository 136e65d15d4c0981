// Package oven implements PRETZEL's optimizer and Model Plan Compiler
// (§4.1.2). Compilation takes a trained pipeline (authored via Flour or
// imported from a model file), interns its parameters in the Object
// Store, rewrites the transformation graph into a stage graph through
// four rule-based steps, and maps each logical stage onto a physical
// kernel built at compile time:
//
//	InputGraphValidatorStep   (3 rules)  schema propagation + validation
//	StageGraphBuilderStep     (1 rule)   one stage per operator, then
//	                                     fuse memory-bound chains
//	StageGraphOptimizerStep   (5 rules)  CSE, featurizer merging, linear-
//	                                     model pushdown through Concat,
//	                                     prefix and single-op inlining
//	OutputGraphValidatorStep  (1 pass)   stage schemas, out caps, final
//	                                     validation
//
// Only steps 2 and 3 rewrite the graph, and each iterates its rules
// until a pass leaves the graph unchanged. Every rule fires on some
// graph that step 1 accepts; a rule no such graph can trigger is not
// kept.
package oven

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"pretzel/internal/ml"
	"pretzel/internal/ops"
	"pretzel/internal/pipeline"
	"pretzel/internal/schema"
	"pretzel/internal/store"
)

// snode is one stage under construction.
type snode struct {
	ops    []ops.Op
	inputs []*snode // nil entry = pipeline input

	// Pushdown annotations (linear model pushed through Concat).
	pushW    []float32     // weight block folded into this stage
	pushBias float32       // only on the finisher
	pushLink ml.LinearKind // only on the finisher
	pushed   bool
	finisher bool

	// Output labels (OutputGraphValidatorStep).
	schema *schema.Schema
	outCap int

	materializable bool
}

// graphIR is the mutable optimizer state.
type graphIR struct {
	nodes    []*snode // insertion order; topo recomputed on demand
	output   *snode
	opts     Options
	objStore *store.ObjectStore // may be nil

	// opDigests memoizes operator digests for the duration of one
	// compile: CSE and every stage signature ask for them.
	opDigests map[ops.Op][sha256.Size]byte
}

// newGraph builds the initial stage graph of a validated pipeline, one
// stage per operator (StageGraphBuilderStep's BuildInitialStages).
func newGraph(p *pipeline.Pipeline, objStore *store.ObjectStore, opts Options) *graphIR {
	g := &graphIR{opts: opts, objStore: objStore, opDigests: make(map[ops.Op][sha256.Size]byte)}
	byNode := make([]*snode, len(p.Nodes))
	for i, n := range p.Nodes {
		sn := &snode{ops: []ops.Op{n.Op}}
		for _, src := range n.Inputs {
			if src == pipeline.InputID {
				sn.inputs = append(sn.inputs, nil)
			} else {
				sn.inputs = append(sn.inputs, byNode[src])
			}
		}
		byNode[i] = sn
		g.nodes = append(g.nodes, sn)
	}
	g.output = byNode[p.Output()]
	return g
}

// opDigest returns the memoized content digest of op: SHA-256 over its
// kind, its configuration (the exported struct fields; parameter objects
// carry `json:"-"` tags) and its parameters' content digests.
// Configuration must be included: two Concat operators with different
// Dims are different operators even though neither has parameters.
func (g *graphIR) opDigest(op ops.Op) [sha256.Size]byte {
	if d, ok := g.opDigests[op]; ok {
		return d
	}
	h := sha256.New()
	writeStr(h, op.Info().Kind)
	if cfg, err := json.Marshal(op); err == nil {
		writeStr(h, string(cfg))
	}
	for _, p := range op.Params() {
		var d store.Digest
		ok := false
		if g.objStore != nil {
			// Canonical instances resolve by identity, without
			// re-serializing megabyte dictionaries.
			d, ok = g.objStore.CanonicalDigest(p)
		}
		if !ok {
			d = store.DigestOf(p)
		}
		h.Write(d[:])
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	g.opDigests[op] = d
	return d
}

// writeStr writes s length-prefixed, so adjacent fields cannot run
// into each other.
func writeStr(w io.Writer, s string) {
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], uint64(len(s)))
	w.Write(b8[:])
	io.WriteString(w, s)
}

// consumers returns the stages reading from n.
func (g *graphIR) consumers(n *snode) []*snode {
	var out []*snode
	for _, m := range g.nodes {
		for _, in := range m.inputs {
			if in == n {
				out = append(out, m)
				break
			}
		}
	}
	return out
}

// remove deletes a node from the graph.
func (g *graphIR) remove(n *snode) {
	for i, m := range g.nodes {
		if m == n {
			g.nodes = append(g.nodes[:i], g.nodes[i+1:]...)
			return
		}
	}
}

// replaceInput rewires every consumer edge from old to new.
func (g *graphIR) replaceInput(old, new *snode) {
	for _, m := range g.nodes {
		for i, in := range m.inputs {
			if in == old {
				m.inputs[i] = new
			}
		}
	}
}

// topo returns the nodes in topological order ending at output.
func (g *graphIR) topo() ([]*snode, error) {
	seen := map[*snode]int{} // 0 unseen, 1 visiting, 2 done
	var order []*snode
	var visit func(n *snode) error
	visit = func(n *snode) error {
		switch seen[n] {
		case 1:
			return fmt.Errorf("oven: cycle in stage graph")
		case 2:
			return nil
		}
		seen[n] = 1
		for _, in := range n.inputs {
			if in != nil {
				if err := visit(in); err != nil {
					return err
				}
			}
		}
		seen[n] = 2
		order = append(order, n)
		return nil
	}
	if err := visit(g.output); err != nil {
		return nil, err
	}
	return order, nil
}

// rule is one rewrite rule; apply reports whether it changed the graph.
type rule struct {
	name  string
	apply func(g *graphIR) (bool, error)
}

// step is one rewriting step: its rules iterate until a full pass leaves
// the graph unchanged (§4.1.2: "within each step, the optimizer iterates
// over its full set of rules until an iteration exists such that the
// graph is not modified after all rules are evaluated").
type step struct {
	name  string
	rules []rule
}

// run executes the step to fixpoint.
func (s step) run(g *graphIR) error {
	for iter := 0; ; iter++ {
		if iter > 1000 {
			return fmt.Errorf("oven: step %s did not reach fixpoint", s.name)
		}
		changed := false
		for _, r := range s.rules {
			c, err := r.apply(g)
			if err != nil {
				return fmt.Errorf("oven: %s/%s: %w", s.name, r.name, err)
			}
			changed = changed || c
		}
		if !changed {
			return nil
		}
	}
}

// isMemoryBound reports whether every op of the stage is memory-bound.
func (n *snode) isMemoryBound() bool {
	for _, op := range n.ops {
		if !op.Info().MemoryBound {
			return false
		}
	}
	return len(n.ops) > 0
}

// hasBreaker reports whether any op of the stage is a pipeline breaker.
func (n *snode) hasBreaker() bool {
	for _, op := range n.ops {
		if op.Info().Breaker {
			return true
		}
	}
	return false
}

// kindsAre matches the exact op-kind sequence of the stage.
func (n *snode) kindsAre(kinds ...string) bool {
	if len(n.ops) != len(kinds) {
		return false
	}
	for i, k := range kinds {
		if n.ops[i].Info().Kind != k {
			return false
		}
	}
	return true
}
