package pipeline_test

import (
	"testing"

	"pretzel/internal/oven"
	"pretzel/internal/pipeline"
	"pretzel/internal/store"
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
