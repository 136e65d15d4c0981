package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"pretzel/internal/dataset"
	"pretzel/internal/ml"
	"pretzel/internal/ops"
	"pretzel/internal/pipeline"
	"pretzel/internal/schema"
	"pretzel/internal/text"
	"pretzel/internal/vector"
	"pretzel/internal/workload"
)

// model is one entry of a catalog: the trained pipeline (kept by the
// benchmark as the oracle and for the per-operator table), the zip the
// node loads, and which input list feeds it.
type model struct {
	name  string
	pipe  *pipeline.Pipeline
	zip   []byte
	class int
	words []string // longtail: the words its salted dictionaries know
}

// catalog is the model assets of one workload, built from modelSeed
// only.
type catalog struct {
	kind    catalogKind
	models  []model
	lexicon []string // review words, most frequent first
}

var (
	positive = []string{"nice", "great", "excellent", "love", "perfect", "wonderful", "best", "amazing"}
	negative = []string{"bad", "terrible", "poor", "hate", "awful", "worst", "broken", "refund"}
)

func buildCatalog(kind catalogKind) (*catalog, error) {
	c := &catalog{kind: kind}
	var pipes []*pipeline.Pipeline
	if kind == catLongtail {
		for i := 0; i < 400; i++ {
			name := fmt.Sprintf("lt-%04d", i)
			p, words := longtailModel(name, int64(i))
			pipes = append(pipes, p)
			c.models = append(c.models, model{name: name, class: i, words: words})
		}
	} else {
		sc := workload.Scale{
			SACount: 64, ACCount: 32,
			CorpusVocab: 8000, CorpusDocs: 2500, TrainDocs: 600,
			CharBudget: 60000, WordBudget: 40000,
			ACDim: 40, ACTrainRows: 400, ReviewLength: 20,
			Seed: modelSeed,
		}
		sa, err := workload.BuildSA(sc)
		if err != nil {
			return nil, err
		}
		for _, p := range sa.Pipelines {
			pipes = append(pipes, p)
			c.models = append(c.models, model{name: p.Name, class: 0})
		}
		if kind == catMixed {
			ac, err := workload.BuildAC(sc)
			if err != nil {
				return nil, err
			}
			for _, p := range ac.Pipelines {
				pipes = append(pipes, p)
				c.models = append(c.models, model{name: p.Name, class: 1})
			}
		}
		c.lexicon = lexicon(sc.CorpusVocab)
	}
	for i, p := range pipes {
		zip, err := p.ExportBytes()
		if err != nil {
			return nil, fmt.Errorf("exporting %s: %w", p.Name, err)
		}
		c.models[i].pipe, c.models[i].zip = p, zip
	}
	return c, nil
}

// lexicon recovers the training corpus's vocabulary (the generator
// does not export it) by reading a sample of it, most frequent first.
func lexicon(vocab int) []string {
	count := map[string]int{}
	marker := map[string]bool{}
	for _, w := range append(append([]string{}, positive...), negative...) {
		marker[w] = true
	}
	for _, r := range dataset.NewReviewCorpus(vocab, modelSeed).Generate(3000, 40) {
		for _, w := range strings.Fields(strings.TrimSuffix(r.Text, ".")) {
			if !marker[w] {
				count[w]++
			}
		}
	}
	words := make([]string, 0, len(count))
	for w := range count {
		words = append(words, w)
	}
	sort.Slice(words, func(i, j int) bool {
		if count[words[i]] != count[words[j]] {
			return count[words[i]] > count[words[j]]
		}
		return words[i] < words[j]
	})
	return words
}

// longtailModel builds one small SA variant over a vocabulary of its
// own (the sentiment markers plus 56 words no sibling has), so it
// shares no dictionary with its siblings and evicting it frees memory.
func longtailModel(name string, salt int64) (*pipeline.Pipeline, []string) {
	rng := rand.New(rand.NewSource(modelSeed + salt))
	docs := []string{strings.Join(positive, " "), strings.Join(negative, " ")}
	for i := 0; i < 56; i++ {
		w := make([]byte, 3+rng.Intn(7))
		for k := range w {
			w[k] = byte('a' + rng.Intn(26))
		}
		docs[i%2] += " " + string(w)
	}
	cb, wb := text.NewDictBuilder(), text.NewDictBuilder()
	for _, doc := range docs {
		toks := text.Tokenize(doc, nil)
		for _, tok := range toks {
			text.ObserveCharNgrams(cb, []byte(tok), 2, 3)
		}
		text.ObserveWordNgrams(wb, toks, 2, nil)
	}
	cd, wd := cb.Build(0), wb.Build(0)
	weights := make([]float32, cd.Size()+wd.Size())
	for i, w := range positive {
		if ix := wd.Lookup(w); ix >= 0 {
			weights[cd.Size()+int(ix)] = 1 + float32(i)/8
		}
	}
	for i, w := range negative {
		if ix := wd.Lookup(w); ix >= 0 {
			weights[cd.Size()+int(ix)] = -1 - float32(i)/8
		}
	}
	p := &pipeline.Pipeline{
		Name:        name,
		InputSchema: schema.Text("Text"),
		Stats:       pipeline.Stats{MaxVectorSize: cd.Size() + wd.Size(), SparseOutput: true},
		Nodes: []pipeline.Node{
			{Op: &ops.Tokenizer{}, Inputs: []int{pipeline.InputID}},
			{Op: &ops.CharNgram{MinN: 2, MaxN: 3, Dict: cd}, Inputs: []int{0}},
			{Op: &ops.WordNgram{MaxN: 2, Dict: wd}, Inputs: []int{0}},
			{Op: &ops.Concat{Dims: []int{cd.Size(), wd.Size()}}, Inputs: []int{1, 2}},
			{Op: &ops.LinearPredictor{Model: &ml.LinearModel{Kind: ml.LogisticRegression, Weights: weights}}, Inputs: []int{3}},
		},
	}
	return p, strings.Fields(strings.Join(docs, " "))
}

// pair is one (model, input) combination; input indexes the model's
// input class.
type pair struct{ model, input int }

// job is one offline batch: 256 inputs for one model.
type job struct {
	model  int
	inputs []string
	refs   [][]float32
}

// stream is everything --seed decides: the input texts, which pairs
// exist, the order requests walk them in, the offline jobs and the
// publish schedule. The node never sees the seed, only these requests.
type stream struct {
	inputs  [][]string // by input class
	pairs   []pair
	bodies  [][]byte // JSON body per pair
	reqs    [][]byte // full HTTP/1.1 request per pair
	refs    [][]float32
	order   []uint32 // pair index per sequence number, cyclic
	sweep   []int    // one pair index per model, for the cold sweep
	jobs    []job
	publish []int // model index per publish cycle, cyclic
}

const requestHead = "POST /predict HTTP/1.1\r\nHost: node\r\nContent-Type: application/json\r\nContent-Length: "

func buildStream(c *catalog, sp spec, seed int64) (*stream, error) {
	rng := rand.New(rand.NewSource(seed))
	s := &stream{}
	nm := len(c.models)

	// Inputs.
	if c.kind == catLongtail {
		for _, m := range c.models {
			list := make([]string, longtailInputs)
			for i := range list {
				n := sp.words/2 + rng.Intn(sp.words)
				ws := make([]string, n)
				for k := range ws {
					ws[k] = m.words[rng.Intn(len(m.words))]
				}
				list[i] = strings.Join(ws, " ")
			}
			s.inputs = append(s.inputs, list)
		}
	} else {
		zipf := rand.NewZipf(rng, 1.3, 2.0, uint64(len(c.lexicon)-1))
		reviews := make([]string, 512)
		for i := range reviews {
			reviews[i] = review(rng, zipf, c.lexicon, sp.words)
		}
		s.inputs = append(s.inputs, reviews)
		if c.kind == catMixed {
			recs := make([]string, 512)
			for i, r := range dataset.NewRecordGen(40, rng.Int63()).Generate(len(recs)) {
				recs[i] = workload.FormatRecord(r.Features)
			}
			s.inputs = append(s.inputs, recs)
		}
	}

	// Pairs and the order requests walk them in.
	s.order = make([]uint32, orderLen)
	if c.kind == catLongtail {
		for m := range c.models {
			for i := range s.inputs[m] {
				s.pairs = append(s.pairs, pair{m, i})
			}
		}
		// Each picker ranks popularity over its own seeded permutation.
		byModel := workload.NewZipfPicker(nm, 1.1, rng.Int63())
		byInput := workload.NewZipfPicker(longtailInputs, 1.1, rng.Int63())
		for i := range s.order {
			s.order[i] = uint32(byModel.Pick()*longtailInputs + byInput.Pick())
		}
		s.publish = make([]int, 4096)
		for i := range s.publish {
			s.publish[i] = byModel.Pick()
		}
	} else {
		for k := 0; k < pairPool; k++ {
			m := k
			if k >= nm {
				m = rng.Intn(nm)
			}
			s.pairs = append(s.pairs, pair{m, rng.Intn(len(s.inputs[c.models[m].class]))})
		}
		for i := range s.order {
			s.order[i] = uint32(rng.Intn(len(s.pairs)))
		}
		s.publish = mixed(c, rng.Perm(nm))
	}
	s.sweep = make([]int, nm)
	for k := len(s.pairs) - 1; k >= 0; k-- {
		s.sweep[s.pairs[k].model] = k
	}

	// Oracle: the unoptimized pipeline's answer for every pair in use.
	memo := map[pair][]float32{}
	scratch := map[int][]*vector.Vector{}
	in, out := vector.New(0), vector.New(0)
	ref := func(p pair) ([]float32, error) {
		if r, ok := memo[p]; ok {
			return r, nil
		}
		m := c.models[p.model]
		if scratch[p.model] == nil {
			vs := make([]*vector.Vector, len(m.pipe.Nodes))
			for i := range vs {
				vs[i] = vector.New(0)
			}
			scratch[p.model] = vs
		}
		in.SetText(s.inputs[m.class][p.input])
		if err := m.pipe.Run(in, out, scratch[p.model]); err != nil {
			return nil, fmt.Errorf("oracle %s: %w", m.name, err)
		}
		r := append([]float32(nil), out.Dense...)
		memo[p] = r
		return r, nil
	}
	for _, p := range s.pairs {
		r, err := ref(p)
		if err != nil {
			return nil, err
		}
		s.refs = append(s.refs, r)
		m := c.models[p.model]
		body, err := json.Marshal(struct {
			Model string `json:"model"`
			Input string `json:"input"`
		}{m.name, s.inputs[m.class][p.input]})
		if err != nil {
			return nil, err
		}
		s.bodies = append(s.bodies, body)
		s.reqs = append(s.reqs, []byte(fmt.Sprintf("%s%d\r\n\r\n%s", requestHead, len(body), body)))
	}

	// Offline jobs: one model each, the same models on every seed (a
	// job's cost depends on its model's n-gram range, so a seeded subset
	// would let the seed show in the metric); the seed draws the inputs.
	catalogOrder := make([]int, nm)
	for i := range catalogOrder {
		catalogOrder[i] = i
	}
	for _, m := range mixed(c, catalogOrder)[:min(sp.batchJobs, nm)] {
		list := s.inputs[c.models[m].class]
		j := job{model: m, inputs: make([]string, batchSize), refs: make([][]float32, batchSize)}
		for i := range j.inputs {
			p := pair{m, rng.Intn(len(list))}
			r, err := ref(p)
			if err != nil {
				return nil, err
			}
			j.inputs[i], j.refs[i] = list[p.input], r
		}
		s.jobs = append(s.jobs, j)
	}
	return s, nil
}

// mixed returns every model once, in the given order within each kind
// of model (SA, AC) and with the kinds interleaved in proportion. An AC
// job or publish costs a fraction of an SA one, so a prefix or a window
// of a plain shuffle would give each seed a different mix of the two
// and the seed would show in the metrics.
func mixed(c *catalog, order []int) []int {
	byKind := map[int][]int{}
	for _, m := range order {
		k := 0
		if c.kind != catLongtail {
			k = c.models[m].class
		}
		byKind[k] = append(byKind[k], m)
	}
	var out []int
	taken := make([]int, len(byKind))
	for len(out) < len(c.models) {
		// Take from the kind that is furthest behind its share.
		best, lag := 0, -1.0
		for k := range taken {
			if l := float64(len(out)+1)*float64(len(byKind[k]))/float64(len(c.models)) - float64(taken[k]); l > lag {
				best, lag = k, l
			}
		}
		out = append(out, byKind[best][taken[best]])
		taken[best]++
	}
	return out
}

// review draws one review of about meanLen words from the lexicon,
// with a sentiment marker every fifth word like the training corpus.
func review(rng *rand.Rand, zipf *rand.Zipf, lex []string, meanLen int) string {
	n := meanLen/2 + rng.Intn(meanLen)
	markers := positive
	if rng.Intn(2) == 0 {
		markers = negative
	}
	var sb strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(' ')
		}
		if rng.Intn(5) == 0 {
			sb.WriteString(markers[rng.Intn(len(markers))])
		} else {
			sb.WriteString(lex[zipf.Uint64()])
		}
	}
	sb.WriteByte('.')
	return sb.String()
}

// agrees reports whether a reply matches its oracle reference.
func agrees(got, want []float32) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		d := math.Abs(float64(got[i]) - float64(want[i]))
		if d > 1e-4*math.Max(1, math.Abs(float64(want[i]))) || math.IsNaN(d) {
			return false
		}
	}
	return true
}
