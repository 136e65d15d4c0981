package plan

import (
	"fmt"

	"pretzel/internal/ml"
	"pretzel/internal/ops"
	"pretzel/internal/text"
	"pretzel/internal/vector"
)

// --- GenericKernel ---

// GenericKernel executes a fused sequence of logical operators in one
// pass, ping-ponging between two pooled vectors. It is the fallback
// physical implementation every logical stage can map to.
type GenericKernel struct {
	Fused []ops.Op
}

// Kind implements Kernel.
func (k *GenericKernel) Kind() string { return "generic" }

// Run implements Kernel.
func (k *GenericKernel) Run(ec *Exec, ins []*vector.Vector, out *vector.Vector) error {
	if len(k.Fused) == 1 {
		return k.Fused[0].Transform(ins, out)
	}
	// Ping-pong through the executor-owned scratch pair: fused stages
	// never touch the vector pool (§4.2.1 contention-free hot path).
	tmpA, tmpB := ec.ScratchPair()
	tmpA.Reset()
	tmpB.Reset()
	cur := tmpA
	next := tmpB
	for i, op := range k.Fused {
		dst := next
		if i == len(k.Fused)-1 {
			dst = out
		}
		var err error
		if i == 0 {
			err = op.Transform(ins, dst)
		} else {
			err = op.Transform([]*vector.Vector{cur}, dst)
		}
		if err != nil {
			return fmt.Errorf("plan: generic stage op %d (%s): %w", i, op.Info().Kind, err)
		}
		cur, next = dst, cur
	}
	return nil
}

// --- SAHeadKernel ---

// SAHeadKernel is the first stage of the optimized sentiment-analysis
// plan: Tokenizer pipelined with CharNgram, with the char block of a
// pushed-down linear model folded in. It emits the token list (arena
// backed, no string allocation) for the dependent word-n-gram stage and
// accumulates the char-block partial margin into the execution context.
// Each token's grams are looked up and weighted in one loop
// (text.CharNgramConfig.SumToken): no call per gram, and the same float32
// sum, bit for bit, as adding the weights over CharNgram's emitted
// indices.
type SAHeadKernel struct {
	Char     text.CharNgramConfig
	Weights  []float32 // char block of the linear model weights
	Tokenize bool      // true when the tokenizer was fused into this stage
}

// Kind implements Kernel.
func (k *SAHeadKernel) Kind() string { return "sa-head" }

// Run implements Kernel.
func (k *SAHeadKernel) Run(ec *Exec, ins []*vector.Vector, out *vector.Vector) error {
	if len(ins) != 1 {
		return fmt.Errorf("plan: sa-head expects one input")
	}
	acc := float32(0)
	w := k.Weights
	if k.Tokenize {
		if ins[0].Kind != vector.KindText {
			return fmt.Errorf("plan: sa-head expects text input, got %s", ins[0].Kind)
		}
		out.Reset()
		out.Kind = vector.KindTokens
		ec.TokBuf = text.TokenizeFunc(ins[0].Text, ec.TokBuf, func(tok []byte) {
			out.AppendTokenBytes(tok)
			acc = k.Char.SumToken(tok, w, acc)
		})
	} else {
		if ins[0].Kind != vector.KindTokens {
			return fmt.Errorf("plan: sa-head expects tokens input, got %s", ins[0].Kind)
		}
		for i := 0; i < ins[0].NumTokens(); i++ {
			acc = k.Char.SumToken(ins[0].TokenAt(i), w, acc)
		}
		out.CopyFrom(ins[0]) // pass the tokens through to the next stage
	}
	ec.Acc += acc
	return nil
}

// --- SATailKernel ---

// SATailKernel is the second stage of the optimized SA plan: WordNgram
// over the token list with the word block of the linear model folded in,
// then bias + link. Concat never runs and the full feature vector is
// never materialized. Each token's grams are probed on the word
// dictionary's trie of term parts and weighted in one call
// (text.WordNgramStream.Sum), with the same float32 sum, bit for bit, as
// adding the weights over WordNgram's emitted indices in stream order.
type SATailKernel struct {
	Word     text.WordNgramConfig
	Weights  []float32 // word block of the linear model weights
	Bias     float32
	Link     ml.LinearKind
	Tokenize bool // true when this stage tokenizes raw text itself
}

// Kind implements Kernel.
func (k *SATailKernel) Kind() string { return "sa-tail" }

// Run implements Kernel.
func (k *SATailKernel) Run(ec *Exec, ins []*vector.Vector, out *vector.Vector) error {
	if len(ins) < 1 {
		return fmt.Errorf("plan: sa-tail expects an input")
	}
	acc := float32(0)
	w := k.Weights
	ws := &ec.WStream
	ws.Configure(&k.Word)
	switch {
	case k.Tokenize && ins[0].Kind == vector.KindText:
		ec.TokBuf = text.TokenizeFunc(ins[0].Text, ec.TokBuf, func(tok []byte) {
			acc = ws.Sum(tok, w, acc)
		})
	case ins[0].Kind == vector.KindTokens:
		toks := ins[0]
		for i := 0; i < toks.NumTokens(); i++ {
			acc = ws.Sum(toks.TokenAt(i), w, acc)
		}
	default:
		return fmt.Errorf("plan: sa-tail expects tokens or text input, got %s", ins[0].Kind)
	}
	margin := ec.Acc + acc + k.Bias
	m := ml.LinearModel{Kind: k.Link}
	d := out.UseDense(1)
	d[0] = m.Link(margin)
	return nil
}

// --- FeaturizeKernel ---

// FeaturizeKernel is the materializable SA flavor: the complete
// featurization prefix (tokenize, char n-grams, word n-grams, concat
// layout) fused into one pass emitting a single sparse feature vector.
// Because its identity depends only on the (widely shared) dictionaries,
// its result can be cached and reused across model plans (§4.3 sub-plan
// materialization).
type FeaturizeKernel struct {
	Char    text.CharNgramConfig
	Word    text.WordNgramConfig
	CharDim int
}

// Kind implements Kernel.
func (k *FeaturizeKernel) Kind() string { return "sa-featurize" }

// Dim returns the output dimensionality (char block + word block).
func (k *FeaturizeKernel) Dim() int { return k.CharDim + k.Word.Dict.Size() }

// Run implements Kernel.
func (k *FeaturizeKernel) Run(ec *Exec, ins []*vector.Vector, out *vector.Vector) error {
	if len(ins) != 1 || ins[0].Kind != vector.KindText {
		return fmt.Errorf("plan: sa-featurize expects one text input")
	}
	out.UseSparse(k.Dim())
	off := int32(k.CharDim)
	ec.WStream.Configure(&k.Word)
	ec.TokBuf = text.TokenizeFunc(ins[0].Text, ec.TokBuf, func(tok []byte) {
		k.Char.ExtractToken(tok, func(ix int32) { out.AppendSparse(ix, 1) })
		ec.WStream.Push(tok, func(ix int32) { out.AppendSparse(off+ix, 1) })
	})
	out.SortSparse()
	return nil
}

// --- LinearScoreKernel ---

// LinearScoreKernel scores a sparse feature vector with a linear model
// (the per-plan tail of the materializable SA flavor).
type LinearScoreKernel struct {
	Model *ml.LinearModel
}

// Kind implements Kernel.
func (k *LinearScoreKernel) Kind() string { return "linear-score" }

// Run implements Kernel.
func (k *LinearScoreKernel) Run(ec *Exec, ins []*vector.Vector, out *vector.Vector) error {
	if len(ins) != 1 {
		return fmt.Errorf("plan: linear-score expects one input")
	}
	var margin float32
	switch ins[0].Kind {
	case vector.KindSparse:
		margin = k.Model.MarginSparse(ins[0].Idx, ins[0].Val)
	case vector.KindDense:
		margin = k.Model.Margin(ins[0].Dense)
	default:
		return fmt.Errorf("plan: linear-score expects a vector input, got %s", ins[0].Kind)
	}
	d := out.UseDense(1)
	d[0] = k.Model.Link(margin)
	return nil
}

// --- ConcatKernel ---

// ConcatKernel concatenates stage outputs. Plans keep an explicit concat
// stage only when the downstream model cannot be pushed through it (tree
// ensembles in AC pipelines).
type ConcatKernel struct {
	Op *ops.Concat
}

// Kind implements Kernel.
func (k *ConcatKernel) Kind() string { return "concat" }

// Run implements Kernel.
func (k *ConcatKernel) Run(ec *Exec, ins []*vector.Vector, out *vector.Vector) error {
	return k.Op.Transform(ins, out)
}

// RunPlan executes a compiled plan on one input, acquiring ALL the
// execution's intermediate vectors in one batched pool visit up front
// and releasing them in one visit at the end (§4.2.1: at most one pool
// interaction per request instead of one lock round-trip per vector).
// It is the single-threaded executor of the request-response engine:
// every stage runs as a row of one through RunStageBatch — the same
// driver the batch engine schedules stage by stage (see the sched
// package) — over Exec-owned scratch, so steady-state executions
// perform no heap allocation beyond what pooled vectors grow.
func RunPlan(p *Plan, ec *Exec, in *vector.Vector, out *vector.Vector) error {
	n := len(p.Stages)
	// Stage output table, reused across calls via the Exec scratch slice.
	if cap(ec.outTab) < n {
		ec.outTab = make([]*vector.Vector, n)
	}
	outputs := ec.outTab[:n]
	nInter := n - 1
	if nInter > 0 {
		ec.Pool.GetN(ec.Shard, outputs[:nInter], p.InterCaps())
	}
	outputs[n-1] = out
	ec.rowAcc[0] = 0
	for i, s := range p.Stages {
		// Cancelled or deadline-expired requests stop here: the next
		// stage kernel never runs (white-box deadline enforcement).
		if err := ec.Cancelled(); err != nil {
			releaseOutputs(ec, outputs, nInter)
			return fmt.Errorf("plan %s: dropped before stage %d: %w", p.Name, i, err)
		}
		insRows := ec.InsRows(1, len(s.Inputs))
		for c, src := range s.Inputs {
			if src == InputID {
				insRows[0][c] = in
			} else {
				insRows[0][c] = outputs[src]
			}
		}
		ec.rowOut[0] = outputs[i]
		if err := RunStageBatch(s, ec, insRows, ec.rowOut[:], ec.rowAcc[:]); err != nil {
			releaseOutputs(ec, outputs, nInter)
			return fmt.Errorf("plan %s: stage %d: %w", p.Name, i, err)
		}
	}
	releaseOutputs(ec, outputs, nInter)
	return nil
}

// releaseOutputs returns a plan execution's intermediate vectors in one
// batched pool visit and clears the output table. Kept out of a defer so
// the hot path stays allocation-free (a deferred closure over the table
// escapes to the heap).
func releaseOutputs(ec *Exec, outputs []*vector.Vector, nInter int) {
	if nInter > 0 {
		ec.Pool.PutN(ec.Shard, outputs[:nInter])
	}
	for i := range outputs {
		outputs[i] = nil
	}
}
