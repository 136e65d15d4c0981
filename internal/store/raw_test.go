package store_test

import (
	"math/rand"
	"slices"
	"testing"

	"pretzel/internal/ops"
	"pretzel/internal/oven"
	"pretzel/internal/pipeline"
	"pretzel/internal/plan"
	"pretzel/internal/store"
	"pretzel/internal/workload"
)

// tinyScale keeps the property test's catalog small: a few SA models
// over the shared dictionary versions and a few AC models.
func tinyScale() workload.Scale {
	return workload.Scale{
		SACount: 8, ACCount: 3,
		CorpusVocab: 80, CorpusDocs: 30, TrainDocs: 20,
		CharBudget: 120, WordBudget: 60,
		ACDim: 6, ACTrainRows: 40, ReviewLength: 10,
		Seed: 11,
	}
}

func catalog(t *testing.T) [][]byte {
	t.Helper()
	sa, err := workload.BuildSA(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	ac, err := workload.BuildAC(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	var zips [][]byte
	for _, p := range append(sa.Pipelines, ac.Pipelines...) {
		b, err := p.ExportBytes()
		if err != nil {
			t.Fatal(err)
		}
		zips = append(zips, b)
	}
	return zips
}

// TestRawIndexLifetimeProperty runs random sequences of indexed import
// -> compile -> release over one store. After every step each raw-index
// entry points at live canonical parameters; after the last release the
// index and the store are empty.
func TestRawIndexLifetimeProperty(t *testing.T) {
	zips := catalog(t)
	rng := rand.New(rand.NewSource(1))
	for seq := 0; seq < 20; seq++ {
		s := store.New()
		var live []*plan.Plan
		for step := 0; step < 40; step++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(live))
				oven.ReleaseInterned(s, live[i].Interned)
				live = append(live[:i], live[i+1:]...)
			} else {
				p, err := pipeline.ImportIndexed(zips[rng.Intn(len(zips))], s)
				if err != nil {
					t.Fatal(err)
				}
				if rng.Intn(4) == 0 && len(live) > 0 {
					// Release a model between import and compile: the
					// import holds no reference, so the compile must
					// re-intern whatever that dropped.
					i := rng.Intn(len(live))
					oven.ReleaseInterned(s, live[i].Interned)
					live = append(live[:i], live[i+1:]...)
					if err := s.CheckRaw(); err != nil {
						t.Fatalf("seq %d step %d: %v", seq, step, err)
					}
				}
				pl, err := oven.Compile(p, s, oven.Options{})
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, pl)
			}
			if err := s.CheckRaw(); err != nil {
				t.Fatalf("seq %d step %d: %v", seq, step, err)
			}
		}
		if st := s.Stats(); st.RawHits == 0 {
			t.Fatalf("seq %d: no import hit the raw index: %+v", seq, st)
		}
		for _, pl := range live {
			oven.ReleaseInterned(s, pl.Interned)
		}
		if st := s.Stats(); st.Unique != 0 || st.Refs != 0 || st.Bytes != 0 || st.RawKeys != 0 {
			t.Fatalf("seq %d: store not drained: %+v", seq, st)
		}
	}
}

// TestReleasedHitIsNotWritten: an import takes operators from the raw
// index, their parameters are then released to zero and equal ones
// interned from a fresh parse. Compiling the first import must rewire
// private copies, not the operators it took, which other imports may
// still hold.
func TestReleasedHitIsNotWritten(t *testing.T) {
	zip := catalog(t)[0]
	s := store.New()
	first, err := pipeline.ImportIndexed(zip, s)
	if err != nil {
		t.Fatal(err)
	}
	plFirst, err := oven.Compile(first, s, oven.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hit, err := pipeline.ImportIndexed(zip, s)
	if err != nil {
		t.Fatal(err)
	}
	taken := map[int][]ops.Param{}
	takenOps := map[int]ops.Op{}
	for i, n := range hit.Nodes {
		if n.Shared {
			taken[i], takenOps[i] = n.Op.Params(), n.Op
		}
	}
	if len(taken) == 0 {
		t.Fatal("the second import hit nothing")
	}
	oven.ReleaseInterned(s, plFirst.Interned)
	if st := s.Stats(); st.Unique != 0 || st.RawKeys != 0 {
		t.Fatalf("after the release: %+v", st)
	}
	fresh, err := pipeline.ImportIndexed(zip, s)
	if err != nil {
		t.Fatal(err)
	}
	plFresh, err := oven.Compile(fresh, s, oven.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plHit, err := oven.Compile(hit, s, oven.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, ps := range taken {
		if got := takenOps[i].Params(); !slices.Equal(got, ps) {
			t.Fatalf("node %d: the operator taken from the index was written to", i)
		}
		n := hit.Nodes[i]
		if n.Op == takenOps[i] || n.Shared {
			t.Fatalf("node %d: compiled through the shared operator", i)
		}
		if !slices.Equal(n.Op.Params(), fresh.Nodes[i].Op.Params()) {
			t.Fatalf("node %d: the copy does not hold the canonical parameters", i)
		}
	}
	if err := s.CheckRaw(); err != nil {
		t.Fatal(err)
	}
	oven.ReleaseInterned(s, plHit.Interned)
	oven.ReleaseInterned(s, plFresh.Interned)
	if st := s.Stats(); st.Unique != 0 || st.Refs != 0 || st.RawKeys != 0 {
		t.Fatalf("store not drained: %+v", st)
	}
}
