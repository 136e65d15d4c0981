package oven

import (
	"slices"
	"strings"
	"testing"

	"pretzel/internal/ml"
	"pretzel/internal/ops"
	"pretzel/internal/pipeline"
	"pretzel/internal/plan"
	"pretzel/internal/schema"
	"pretzel/internal/store"
	"pretzel/internal/vector"
	"pretzel/internal/workload"
)

// bothModes are the two compile modes every rule test covers.
var bothModes = []Options{DefaultOptions(), {Materialization: true}}

// producerPipelines returns every SA, AC (all four variants) and density
// model at the ops package's fuzz seed scale.
func producerPipelines(t *testing.T) []*pipeline.Pipeline {
	t.Helper()
	sc := workload.Scale{
		SACount: 1, ACCount: 4,
		CorpusVocab: 40, CorpusDocs: 12, TrainDocs: 8,
		CharBudget: 24, WordBudget: 12,
		ACDim: 3, ACTrainRows: 16, ReviewLength: 6,
		Seed: 5,
	}
	sa, err := workload.BuildSA(sc)
	if err != nil {
		t.Fatal(err)
	}
	ac, err := workload.BuildAC(sc)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := workload.BuildDensity(2, sc)
	if err != nil {
		t.Fatal(err)
	}
	return slices.Concat(sa.Pipelines, ac.Pipelines, ds.Pipelines)
}

// saTwoChars is the SA pipeline with its CharNgram branch read twice
// from two equal operators: Tokenizer -> CharNgram, CharNgram, WordNgram
// -> Concat -> LinearPredictor.
func saTwoChars(t *testing.T) *pipeline.Pipeline {
	sa := buildSA(t, "sa-two-chars", 0)
	char := sa.Nodes[1].Op.(*ops.CharNgram)
	dims := sa.Nodes[3].Op.(*ops.Concat).Dims
	m := sa.Nodes[4].Op.(*ops.LinearPredictor).Model
	weights := slices.Concat(m.Weights[:dims[0]], m.Weights)
	for i := range weights[:dims[0]] {
		weights[i] += 0.5 // the two char blocks must not score alike
	}
	return &pipeline.Pipeline{
		Name:        sa.Name,
		InputSchema: sa.InputSchema,
		Nodes: []pipeline.Node{
			sa.Nodes[0],
			{Op: &ops.CharNgram{MinN: char.MinN, MaxN: char.MaxN, Dict: char.Dict}, Inputs: []int{0}},
			{Op: &ops.CharNgram{MinN: char.MinN, MaxN: char.MaxN, Dict: char.Dict}, Inputs: []int{0}},
			{Op: sa.Nodes[2].Op, Inputs: []int{0}},
			{Op: &ops.Concat{Dims: []int{dims[0], dims[0], dims[1]}}, Inputs: []int{1, 2, 3}},
			{Op: &ops.LinearPredictor{Model: &ml.LinearModel{Kind: m.Kind, Weights: weights, Bias: m.Bias}}, Inputs: []int{4}},
		},
	}
}

// saTwoTokenizers is the SA pipeline with one Tokenizer per n-gram
// branch.
func saTwoTokenizers(t *testing.T) *pipeline.Pipeline {
	sa := buildSA(t, "sa-two-tokenizers", 0)
	return &pipeline.Pipeline{
		Name:        sa.Name,
		InputSchema: sa.InputSchema,
		Nodes: []pipeline.Node{
			{Op: &ops.Tokenizer{}, Inputs: []int{pipeline.InputID}},
			{Op: &ops.Tokenizer{}, Inputs: []int{pipeline.InputID}},
			{Op: sa.Nodes[1].Op, Inputs: []int{0}},
			{Op: sa.Nodes[2].Op, Inputs: []int{1}},
			{Op: sa.Nodes[3].Op, Inputs: []int{2, 3}},
			{Op: sa.Nodes[4].Op, Inputs: []int{4}},
		},
	}
}

// twoImputers is ParseFloats -> Imputer, Imputer (equal fills) -> Concat
// -> LinearPredictor.
func twoImputers() *pipeline.Pipeline {
	fill := func() *ops.Floats { return &ops.Floats{V: []float32{0.5, -1, 2}} }
	return &pipeline.Pipeline{
		Name:        "two-imputers",
		InputSchema: schema.Text("Line"),
		Nodes: []pipeline.Node{
			{Op: &ops.ParseFloats{Sep: ',', Dim: 3}, Inputs: []int{pipeline.InputID}},
			{Op: &ops.Imputer{Fill: fill()}, Inputs: []int{0}},
			{Op: &ops.Imputer{Fill: fill()}, Inputs: []int{0}},
			{Op: &ops.Concat{Dims: []int{3, 3}}, Inputs: []int{1, 2}},
			{Op: &ops.LinearPredictor{Model: &ml.LinearModel{
				Kind: ml.LinearRegression, Weights: []float32{1, -2, 3, 0.25, 0.5, -1}, Bias: 0.1,
			}}, Inputs: []int{3}},
		},
	}
}

// compileFired compiles p as Compile does with no object store, counting
// the rewrites each builder and optimizer rule makes, and checks that the
// plan equals Compile's.
func compileFired(t *testing.T, p *pipeline.Pipeline, opts Options) (*plan.Plan, map[string]int) {
	t.Helper()
	if err := validateInput(p); err != nil {
		t.Fatal(err)
	}
	fired := map[string]int{}
	g := newGraph(p, nil, opts)
	for _, st := range []step{buildStep(), optimizerStep(opts)} {
		for i, r := range st.rules {
			st.rules[i].apply = func(g *graphIR) (bool, error) {
				changed, err := r.apply(g)
				if changed {
					fired[r.name]++
				}
				return changed, err
			}
		}
		if err := st.run(g); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
	if err := validateOutput(g); err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	pl, err := assemble(p, g)
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	want, err := Compile(p, nil, opts)
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	if !slices.EqualFunc(pl.Stages, want.Stages, func(a, b *plan.Stage) bool { return a.Sig == b.Sig }) {
		t.Fatalf("%s: the traced compile differs from Compile", p.Name)
	}
	return pl, fired
}

// checkPlanInvariants fails unless every stage of pl holds an operator,
// the output reaches every stage, and a stage of several operators holds
// memory-bound ones only.
func checkPlanInvariants(t *testing.T, name string, pl *plan.Plan) {
	t.Helper()
	reach := make([]bool, len(pl.Stages))
	var mark func(i int)
	mark = func(i int) {
		if i == plan.InputID || reach[i] {
			return
		}
		reach[i] = true
		for _, in := range pl.Stages[i].Inputs {
			mark(in)
		}
	}
	mark(len(pl.Stages) - 1)
	for i, s := range pl.Stages {
		kinds := strings.Join(s.OpKinds(), "+")
		if len(s.Ops) == 0 {
			t.Errorf("%s: stage %d is empty", name, i)
		}
		if !reach[i] {
			t.Errorf("%s: stage %d (%s) is unreachable from the output", name, i, kinds)
		}
		for _, op := range s.Ops {
			if len(s.Ops) > 1 && !op.Info().MemoryBound {
				t.Errorf("%s: stage %d (%s) fuses compute-bound %s", name, i, kinds, op.Info().Kind)
			}
		}
	}
}

// TestRulesFire pins the rule table to the graphs that fire it: every
// builder and optimizer rule fires on a producer's model or on a
// repeated-branch pipeline, the producers fire exactly the four rules
// their plans are made of, and every plan holds the invariants that keep
// dead-stage, empty-stage and compute-bound-isolation rules out.
func TestRulesFire(t *testing.T) {
	var rules []string
	for _, st := range []step{buildStep(), optimizerStep(DefaultOptions())} {
		for _, r := range st.rules {
			rules = append(rules, r.name)
		}
	}
	fired := func(ps []*pipeline.Pipeline) map[string]bool {
		all := map[string]bool{}
		for _, opts := range bothModes {
			for _, p := range ps {
				pl, f := compileFired(t, p, opts)
				checkPlanInvariants(t, p.Name, pl)
				for name := range f {
					all[name] = true
				}
			}
		}
		return all
	}
	produced := fired(producerPipelines(t))
	var got []string
	for name := range produced {
		got = append(got, name)
	}
	slices.Sort(got)
	want := []string{"FuseMemoryBoundChains", "MergeFeaturizersForMaterialization", "PushLinearThroughConcat", "SharedPrefixInline"}
	if !slices.Equal(got, want) {
		t.Errorf("the producers fire %v, want %v", got, want)
	}
	repeated := fired([]*pipeline.Pipeline{saTwoChars(t), saTwoTokenizers(t), twoImputers()})
	for _, name := range rules {
		if !produced[name] && !repeated[name] {
			t.Errorf("rule %s fires on no pipeline", name)
		}
	}
}

// TestCompileConcatReadingOneStageTwice: once MergeEqualStages joins two
// equal n-gram branches, the Concat reads one stage twice; the linear
// model is not pushed through it, and the plan answers as the pipeline
// does, bit for bit, in both modes.
func TestCompileConcatReadingOneStageTwice(t *testing.T) {
	inputs := []string{"a nice product", "bad quality, bad support", "", "nice nice nice bad"}
	for _, opts := range bothModes {
		p, ref := saTwoChars(t), saTwoChars(t)
		pl, err := Compile(p, store.New(), opts)
		if err != nil {
			t.Fatalf("materialization %v: %v", opts.Materialization, err)
		}
		ec := newExec()
		in, got, want := vector.New(0), vector.New(0), vector.New(0)
		for _, s := range inputs {
			in.SetText(s)
			if err := plan.RunPlan(pl, ec, in, got); err != nil {
				t.Fatalf("%q: %v", s, err)
			}
			if err := ref.Run(in, want, nil); err != nil {
				t.Fatal(err)
			}
			if got.Dense[0] != want.Dense[0] {
				t.Fatalf("materialization %v, %q: plan %v, pipeline %v", opts.Materialization, s, got.Dense[0], want.Dense[0])
			}
		}
	}
}

// saCharReadTwice is the SA featurizer whose CharNgram branch feeds a
// second Concat too: Tokenizer -> CharNgram, WordNgram -> Concat1, and
// Concat2(Concat1, CharNgram) -> LinearPredictor.
func saCharReadTwice(t *testing.T) *pipeline.Pipeline {
	sa := buildSA(t, "sa-char-read-twice", 0)
	dims := sa.Nodes[3].Op.(*ops.Concat).Dims
	m := sa.Nodes[4].Op.(*ops.LinearPredictor).Model
	weights := slices.Concat(m.Weights, m.Weights[:dims[0]])
	for i := range weights[len(m.Weights):] {
		weights[len(m.Weights)+i] -= 0.25 // the two char blocks must not score alike
	}
	return &pipeline.Pipeline{
		Name:        sa.Name,
		InputSchema: sa.InputSchema,
		Nodes: []pipeline.Node{
			sa.Nodes[0],
			{Op: sa.Nodes[1].Op, Inputs: []int{0}},
			{Op: sa.Nodes[2].Op, Inputs: []int{0}},
			{Op: &ops.Concat{Dims: dims}, Inputs: []int{1, 2}},
			{Op: &ops.Concat{Dims: []int{dims[0] + dims[1], dims[0]}}, Inputs: []int{3, 1}},
			{Op: &ops.LinearPredictor{Model: &ml.LinearModel{Kind: m.Kind, Weights: weights, Bias: m.Bias}}, Inputs: []int{4}},
		},
	}
}

// TestFeaturizersFuseOnlyWhenSoleConsumer: the materializable SA stage
// swallows its n-gram branches only when its Concat is their one
// consumer. Here a second Concat reads the CharNgram branch as well, so
// fusing would leave the tokenizer and the char n-grams planned twice.
// In both modes exactly one stage holds a Tokenizer and one a CharNgram
// (counted by kind: ops.Tokenizer is zero-size, so two of them may
// share an address), and the plan answers as the pipeline does, bit for
// bit.
func TestFeaturizersFuseOnlyWhenSoleConsumer(t *testing.T) {
	inputs := []string{"a nice product", "bad quality, bad support", "", "nice nice nice bad"}
	for _, opts := range bothModes {
		p, ref := saCharReadTwice(t), saCharReadTwice(t)
		pl, err := Compile(p, store.New(), opts)
		if err != nil {
			t.Fatalf("materialization %v: %v", opts.Materialization, err)
		}
		for _, kind := range []string{"Tokenizer", "CharNgram"} {
			holding := 0
			for _, s := range pl.Stages {
				if slices.Contains(s.OpKinds(), kind) {
					holding++
				}
			}
			if holding != 1 {
				t.Fatalf("materialization %v: %d stages hold a %s, want 1", opts.Materialization, holding, kind)
			}
		}
		ec := newExec()
		in, got, want := vector.New(0), vector.New(0), vector.New(0)
		for _, s := range inputs {
			in.SetText(s)
			if err := plan.RunPlan(pl, ec, in, got); err != nil {
				t.Fatalf("%q: %v", s, err)
			}
			if err := ref.Run(in, want, nil); err != nil {
				t.Fatal(err)
			}
			if got.Dense[0] != want.Dense[0] {
				t.Fatalf("materialization %v, %q: plan %v, pipeline %v", opts.Materialization, s, got.Dense[0], want.Dense[0])
			}
		}
	}
}
