package pipeline_test

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"

	"pretzel/internal/ops"
	"pretzel/internal/oven"
	"pretzel/internal/pipeline"
	"pretzel/internal/plan"
	"pretzel/internal/store"
	"pretzel/internal/vector"
	"pretzel/internal/workload"
)

// fuzzZips exports one tiny SA and one tiny AC model: the valid seeds
// of testdata/fuzz/FuzzImportBytes, byte for byte.
func fuzzZips(tb testing.TB) [][]byte {
	tb.Helper()
	sc := workload.Scale{
		SACount: 1, ACCount: 1,
		CorpusVocab: 40, CorpusDocs: 12, TrainDocs: 8,
		CharBudget: 24, WordBudget: 12,
		ACDim: 3, ACTrainRows: 16, ReviewLength: 6,
		Seed: 5,
	}
	sa, err := workload.BuildSA(sc)
	if err != nil {
		tb.Fatal(err)
	}
	ac, err := workload.BuildAC(sc)
	if err != nil {
		tb.Fatal(err)
	}
	var zips [][]byte
	for _, p := range []*pipeline.Pipeline{sa.Pipelines[0], ac.Pipelines[0]} {
		b, err := p.ExportBytes()
		if err != nil {
			tb.Fatal(err)
		}
		zips = append(zips, b)
	}
	return zips
}

// FuzzImportBytes runs the plain import and the indexed import, against
// one raw index that holds the valid seeds' operators, on every input.
// Neither may panic, both must accept the same inputs, and an accepted
// input must give equal parameter digests either way.
func FuzzImportBytes(f *testing.F) {
	s := store.New()
	for _, b := range fuzzZips(f) {
		p, err := pipeline.ImportIndexed(b, s)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := oven.Compile(p, s, oven.Options{}); err != nil {
			f.Fatal(err)
		}
	}
	if s.Stats().RawKeys == 0 {
		f.Fatal("the seeds indexed nothing")
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		plain, plainErr := pipeline.ImportBytes(b)
		indexed, err := pipeline.ImportIndexed(b, s)
		if (err == nil) != (plainErr == nil) {
			t.Fatalf("plain import error %v, indexed %v", plainErr, err)
		}
		if err != nil {
			return
		}
		for i, n := range plain.Nodes {
			ps, qs := n.Op.Params(), indexed.Nodes[i].Op.Params()
			if len(ps) != len(qs) {
				t.Fatalf("node %d: %d parameters plain, %d indexed", i, len(ps), len(qs))
			}
			for k := range ps {
				if store.DigestOf(ps[k]) != store.DigestOf(qs[k]) {
					t.Fatalf("node %d parameter %d: digests differ", i, k)
				}
			}
		}
	})
}

// hugeMaxNZip is fuzzZips's SA model with a WordNgram MaxN of 10^9, which
// an upload may claim: the seed testdata/fuzz/FuzzImportBytes/huge-maxn,
// byte for byte.
func hugeMaxNZip(tb testing.TB) []byte {
	tb.Helper()
	p, err := pipeline.ImportBytes(fuzzZips(tb)[0])
	if err != nil {
		tb.Fatal(err)
	}
	word := p.Nodes[2].Op.(*ops.WordNgram)
	word.MaxN = 1_000_000_000
	b, err := p.ExportBytes()
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestImportHugeMaxN: the huge-maxn seed imports, compiles to the pushed
// SA plan and predicts what the unoptimized pipeline does. The word
// stream counts grams only up to the dictionary's longest term, so it
// holds one token, not 10^9-1.
func TestImportHugeMaxN(t *testing.T) {
	seed, err := os.ReadFile("testdata/fuzz/FuzzImportBytes/huge-maxn")
	if err != nil {
		t.Fatal(err)
	}
	_, quoted, _ := strings.Cut(strings.TrimSpace(string(seed)), "\n[]byte(")
	b, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(b), hugeMaxNZip(t)) {
		t.Fatal("the huge-maxn seed is not hugeMaxNZip's archive")
	}
	p, err := pipeline.ImportBytes([]byte(b))
	if err != nil {
		t.Fatal(err)
	}
	if n := p.Nodes[2].Op.(*ops.WordNgram).MaxN; n != 1_000_000_000 {
		t.Fatalf("MaxN %d after import", n)
	}
	pl, err := oven.Compile(p, store.New(), oven.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if k := pl.Stages[len(pl.Stages)-1].Kern.Kind(); k != "sa-tail" {
		t.Fatalf("last stage %s, want sa-tail", k)
	}
	ec := &plan.Exec{Pool: vector.NewPool()}
	in, got, want := vector.New(0), vector.New(0), vector.New(0)
	for _, s := range []string{"", "a", "nice great product", strings.Repeat("great nice bad ", 40)} {
		in.SetText(s)
		if err := plan.RunPlan(pl, ec, in, got); err != nil {
			t.Fatal(err)
		}
		if err := p.Run(in, want, nil); err != nil {
			t.Fatal(err)
		}
		if d := got.Dense[0] - want.Dense[0]; d > 1e-5 || d < -1e-5 {
			t.Fatalf("%q: plan %v, pipeline %v", s, got.Dense[0], want.Dense[0])
		}
	}
}
