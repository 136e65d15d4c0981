package lifecycle

import (
	"context"
	"testing"

	"pretzel/internal/oven"
	"pretzel/internal/pipeline"
	"pretzel/internal/runtime"
	"pretzel/internal/serving"
	"pretzel/internal/store"
)

// TestColdLoadOfResidentParamsParsesNothing: a cold load whose
// parameters are all resident takes every parameter-carrying operator
// from the raw index: no params.bin of one is inflated (no raw miss)
// and no parameter is digested. Unregistering every model drains both
// stores and the raw index.
func TestColdLoadOfResidentParamsParsesNothing(t *testing.T) {
	dir := t.TempDir()
	r := openRepo(t, dir)
	// Twins: one salt and one final layer, so b's parameters are a's.
	for _, name := range []string{"a", "b"} {
		if _, err := r.Put(name, 0, saltedZip(t, name, "shared", 0)); err != nil {
			t.Fatal(err)
		}
	}
	m := newManager(t, dir, Config{LazyLoad: true})
	objs := m.rt.ObjectStore()

	want := predict(t, m, "a")
	before := objs.Stats()
	if before.RawKeys != 3 || before.RawMisses != 3 {
		t.Fatalf("after the first cold load: %+v, want 3 raw keys and misses", before)
	}
	if got := predict(t, m, "b"); got[0] != want[0] {
		t.Fatalf("twin scores %v, want %v", got[0], want[0])
	}
	after := objs.Stats()
	if after.RawMisses != before.RawMisses || after.Digests != before.Digests {
		t.Fatalf("a resident cold load parsed or digested: before %+v after %+v", before, after)
	}
	if got := after.RawHits - before.RawHits; got != 3 {
		t.Fatalf("raw hits = %d, want 3", got)
	}
	if after.Unique != 3 || after.Refs != 6 {
		t.Fatalf("store after two twins: %+v, want 3 unique parameters with 6 references", after)
	}

	for _, name := range []string{"a", "b"} {
		if err := m.Unregister(name); err != nil {
			t.Fatal(err)
		}
	}
	if st := objs.Stats(); st.Unique != 0 || st.Refs != 0 || st.Bytes != 0 || st.RawKeys != 0 {
		t.Fatalf("object store not drained: %+v", st)
	}
	if ps := m.rt.PlanStore(); ps.Stats().Unique != 0 || ps.MemBytes() != 0 {
		t.Fatalf("plan store not drained: count=%d bytes=%d", ps.Stats().Unique, ps.MemBytes())
	}
}

// TestEvictionBetweenHitAndCompile: an import takes a's operators from
// the raw index, then a is evicted, which releases their parameters to
// zero and drops the index entries. Compiling the import afterwards
// re-interns the very instances it holds: the model predicts as a plain
// load does and the store counts are exact.
func TestEvictionBetweenHitAndCompile(t *testing.T) {
	dir := t.TempDir()
	r := openRepo(t, dir)
	if _, err := r.Put("a", 0, saltedZip(t, "a", "shared", 0)); err != nil {
		t.Fatal(err)
	}
	m := newManager(t, dir, Config{LazyLoad: true})
	objs := m.rt.ObjectStore()
	predict(t, m, "a")

	// b shares a's dictionaries, not its final layer.
	zipB := saltedZip(t, "b", "shared", 1)
	before := objs.Stats()
	p, err := pipeline.ImportIndexed(zipB, objs)
	if err != nil {
		t.Fatal(err)
	}
	if st := objs.Stats(); st.RawHits-before.RawHits != 2 || st.RawMisses-before.RawMisses != 1 {
		t.Fatalf("b must hit both dictionaries and miss its final layer: before %+v after %+v", before, st)
	}

	m.loadMu.Lock()
	evicted := m.evictOne(nil)
	m.loadMu.Unlock()
	if !evicted || state(m, "a") != StateCold {
		t.Fatal("a was not evicted")
	}
	if st := objs.Stats(); st.Unique != 0 || st.Refs != 0 || st.RawKeys != 0 {
		t.Fatalf("after evicting a: %+v, want an empty store and raw index", st)
	}

	mid := objs.Stats()
	pl, err := oven.Compile(p, objs, m.comp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.rt.RegisterVersion(pl, "b", 1); err != nil {
		t.Fatal(err)
	}
	st := objs.Stats()
	if st.Unique != 3 || st.Refs != 3 || st.RawKeys != 3 {
		t.Fatalf("after compiling b: %+v, want 3 unique parameters, references and raw keys", st)
	}
	// The two dictionaries that were dropped are digested again; the
	// final layer was parsed, so it is digested too.
	if got := st.Digests - mid.Digests; got != 3 {
		t.Fatalf("digests = %d, want 3", got)
	}
	got, err := m.inner.Predict(context.Background(), "b", "a nice product", serving.PredictOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want := plainScore(t, zipB); got[0] != want {
		t.Fatalf("b scores %v, want %v", got[0], want)
	}

	if err := m.inner.Unregister("b"); err != nil {
		t.Fatal(err)
	}
	if st := objs.Stats(); st.Unique != 0 || st.Refs != 0 || st.RawKeys != 0 {
		t.Fatalf("object store not drained: %+v", st)
	}
}

// plainScore is a zip's score on the test input from a runtime of its
// own, with nothing shared.
func plainScore(t *testing.T, zip []byte) float32 {
	t.Helper()
	rt := runtime.New(store.New(), runtime.Config{Executors: 1})
	defer rt.Close()
	l := serving.NewLocal(rt, nil)
	res, err := l.Register(zip, serving.RegisterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := l.Predict(context.Background(), res.Name, "a nice product", serving.PredictOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return out[0]
}
