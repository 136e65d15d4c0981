package lifecycle

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"pretzel/internal/ml"
	"pretzel/internal/ops"
	"pretzel/internal/pipeline"
	"pretzel/internal/repo"
	"pretzel/internal/runtime"
	"pretzel/internal/schema"
	"pretzel/internal/serving"
	"pretzel/internal/store"
	"pretzel/internal/text"
)

// buildZip exports a tiny sentiment pipeline. The training docs are
// salted with the model name so each model carries its own
// dictionaries — a long tail of unrelated models, where eviction
// actually frees memory (fully shared dictionaries would make every
// model's marginal footprint trivial and the budget meaningless).
func buildZip(t testing.TB, name string, bump float32) []byte {
	t.Helper()
	// Hex-encode the name into a single alphanumeric token: a raw name
	// like "m-a" tokenizes into 1-char fragments that yield no 2-3
	// char-ngrams, which would leave the char dictionary identical
	// (shared) across models.
	return saltedZip(t, name, fmt.Sprintf("x%x", name), bump)
}

// saltedZip exports the sentiment pipeline of buildZip with its
// dictionaries salted by salt: models with one salt share both
// dictionaries, and with one bump their final layer too.
func saltedZip(t testing.TB, name, salt string, bump float32) []byte {
	t.Helper()
	cb, wb := text.NewDictBuilder(), text.NewDictBuilder()
	for _, doc := range []string{"nice product great wonderful " + salt, "bad refund awful broken own" + salt} {
		toks := text.Tokenize(doc, nil)
		for _, tok := range toks {
			text.ObserveCharNgrams(cb, []byte(tok), 2, 3)
		}
		text.ObserveWordNgrams(wb, toks, 2, nil)
	}
	cd, wd := cb.Build(0), wb.Build(0)
	weights := make([]float32, cd.Size()+wd.Size())
	if ix := wd.Lookup("nice"); ix >= 0 {
		weights[cd.Size()+int(ix)] = 3 + bump
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
	zip, err := p.ExportBytes()
	if err != nil {
		t.Fatal(err)
	}
	return zip
}

func openRepo(t testing.TB, dir string) *repo.Repo {
	t.Helper()
	r, err := repo.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// newManager builds a Manager over a fresh runtime and the repository
// at dir. Close (runtime included) is hooked to test cleanup.
func newManager(t testing.TB, dir string, cfg Config) *Manager {
	t.Helper()
	rt := runtime.New(store.New(), runtime.Config{Executors: 2})
	m, err := New(serving.NewLocal(rt, nil), openRepo(t, dir), cfg)
	if err != nil {
		rt.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func predict(t testing.TB, m *Manager, model string) []float32 {
	t.Helper()
	out, err := m.Predict(context.Background(), model, "a nice product", serving.PredictOptions{})
	if err != nil {
		t.Fatalf("predict %s: %v", model, err)
	}
	return out
}

func state(m *Manager, name string) string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if e := m.entries[name]; e != nil {
		return e.state
	}
	return ""
}

func TestLazyColdLoadOnFirstPredict(t *testing.T) {
	dir := t.TempDir()
	r := openRepo(t, dir)
	if _, err := r.Put("sa", 0, buildZip(t, "sa", 0)); err != nil {
		t.Fatal(err)
	}
	m := newManager(t, dir, Config{LazyLoad: true})

	if got := state(m, "sa"); got != StateCold {
		t.Fatalf("lazy manager must start cold, got %q", got)
	}
	// Resolve must answer for the cold model without loading it.
	if name, v, err := m.Resolve("sa"); err != nil || name != "sa" || v != 1 {
		t.Fatalf("cold resolve: %s@%d %v", name, v, err)
	}
	if got := state(m, "sa"); got != StateCold {
		t.Fatalf("resolve must not load, got %q", got)
	}

	if out := predict(t, m, "sa"); out[0] <= 0.5 {
		t.Fatalf("score %v", out[0])
	}
	if got := state(m, "sa"); got != StateWarm {
		t.Fatalf("predict must warm the model, got %q", got)
	}
	if m.coldLoads.Load() != 1 {
		t.Fatalf("cold loads = %d, want 1", m.coldLoads.Load())
	}
	if m.coldStart.Count() != 1 {
		t.Fatal("cold-start histogram must record the load")
	}
	if m.ResidentBytes() <= 0 {
		t.Fatal("resident bytes must be accounted")
	}
}

// TestCorruptVersionSkipped: a single corrupt version on disk (e.g.
// half-written by an offline trainer) must not make the whole model
// unservable — good versions load and the bad one counts as a load
// error. A model whose EVERY version is corrupt fails fast on repeat
// attempts (negative cache) instead of redoing the full disk read +
// compile on each one — whichever entry point asks for the load.
func TestCorruptVersionSkipped(t *testing.T) {
	dir := t.TempDir()
	r := openRepo(t, dir)
	if _, err := r.Put("sa", 1, buildZip(t, "sa", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Put("sa", 2, []byte("not a zip")); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"bad-predict", "bad-warm", "bad-pin"} {
		if _, err := r.Put(bad, 1, []byte("also not a zip")); err != nil {
			t.Fatal(err)
		}
	}
	m := newManager(t, dir, Config{LazyLoad: true})

	if out := predict(t, m, "sa"); out[0] <= 0.5 {
		t.Fatalf("score %v", out[0])
	}
	if got := state(m, "sa"); got != StateWarm {
		t.Fatalf("good version must serve despite corrupt sibling, got %q", got)
	}
	if m.loadErrs.Load() == 0 {
		t.Fatal("skipped corrupt version must count as a load error")
	}

	for name, load := range map[string]func(name string) error{
		"bad-predict": func(name string) error {
			_, err := m.Predict(context.Background(), name, "x", serving.PredictOptions{})
			return err
		},
		"bad-warm": m.Warm,
		"bad-pin":  func(name string) error { return m.Pin(name, true) },
	} {
		// Fully corrupt model: the load fails with ErrBadModel...
		first := load(name)
		if !errors.Is(first, serving.ErrBadModel) {
			t.Fatalf("%s: fully corrupt model: %v", name, first)
		}
		// ...and an immediate retry is answered from the negative cache:
		// the same error, and no new load attempt, so loadErrs must not
		// move.
		errs := m.loadErrs.Load()
		if again := load(name); again != first {
			t.Fatalf("%s: cached failure: %v, want %v", name, again, first)
		}
		if got := m.loadErrs.Load(); got != errs {
			t.Fatalf("%s: negative cache missed: load retried (%d -> %d load errors)", name, errs, got)
		}
	}
}

func TestEagerPreloadAndRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	r := openRepo(t, dir)
	for _, name := range []string{"a", "b"} {
		if _, err := r.Put(name, 0, buildZip(t, name, 0)); err != nil {
			t.Fatal(err)
		}
	}
	// First "server instance": eager preload straight from disk.
	m := newManager(t, dir, Config{})
	if state(m, "a") != StateWarm || state(m, "b") != StateWarm {
		t.Fatalf("eager preload: a=%s b=%s", state(m, "a"), state(m, "b"))
	}
	predict(t, m, "a")
	m.Close()

	// "Restart": a new manager over the same directory recovers both
	// models without any re-upload.
	m2 := newManager(t, dir, Config{})
	predict(t, m2, "a")
	predict(t, m2, "b")
}

func TestRegisterWritesThroughToRepo(t *testing.T) {
	dir := t.TempDir()
	m := newManager(t, dir, Config{})
	res, err := m.Register(buildZip(t, "up", 0), serving.RegisterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "up" || res.Version != 1 || res.ID == 0 {
		t.Fatalf("register result %+v", res)
	}
	predict(t, m, "up")

	// The upload must be durable: visible on disk and served by a
	// fresh manager over the same directory.
	r := openRepo(t, dir)
	if vs, err := r.Versions("up"); err != nil || len(vs) != 1 {
		t.Fatalf("upload not persisted: %v %v", vs, err)
	}
	m.Close()
	m2 := newManager(t, dir, Config{})
	predict(t, m2, "up")

	// A second version registers next to the first on a warm model.
	res2, err := m2.Register(buildZip(t, "up", 1), serving.RegisterOptions{Label: "canary"})
	if err != nil || res2.Version != 2 {
		t.Fatalf("second version: %+v %v", res2, err)
	}
	if name, v, err := m2.Resolve("up@canary"); err != nil || name != "up" || v != 2 {
		t.Fatalf("canary resolve: %s@%d %v", name, v, err)
	}
}

// calibrate measures the eager full-load resident footprint of dir so
// budget tests can pick budgets as fractions of reality rather than
// guessing byte sizes.
func calibrate(t testing.TB, dir string) int64 {
	t.Helper()
	rt := runtime.New(store.New(), runtime.Config{Executors: 1})
	probe, err := New(serving.NewLocal(rt, nil), openRepo(t, dir), Config{})
	if err != nil {
		rt.Close()
		t.Fatal(err)
	}
	total := probe.ResidentBytes()
	probe.Close()
	return total
}

func TestBudgetBoundsResidency(t *testing.T) {
	dir := t.TempDir()
	r := openRepo(t, dir)
	const n = 12
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("m%02d", i)
		if _, err := r.Put(names[i], 0, buildZip(t, names[i], float32(i))); err != nil {
			t.Fatal(err)
		}
	}
	total := calibrate(t, dir)
	budget := total / 4

	m := newManager(t, dir, Config{RAMBudget: budget, LazyLoad: true})
	// Skewed access: every model is touched, repeatedly, in a pattern
	// that cannot fit resident all at once.
	for round := 0; round < 4; round++ {
		for i, name := range names {
			predict(t, m, name)
			if i%3 == 0 {
				predict(t, m, names[0]) // keep one model hot
			}
			if got := m.ResidentBytes(); got > budget {
				t.Fatalf("resident %d exceeds budget %d", got, budget)
			}
		}
	}
	if m.ResidentBytes() > budget {
		t.Fatalf("final resident %d exceeds budget %d", m.ResidentBytes(), budget)
	}
	if m.evictions.Load() == 0 {
		t.Fatal("a budget a quarter of the working set must evict")
	}
	if m.coldLoads.Load() <= uint64(len(names)) {
		t.Fatalf("cold loads = %d, want reloads beyond the first pass", m.coldLoads.Load())
	}
	ls := m.LStats()
	if ls.ColdStart.Count == 0 || ls.ColdStart.P99Nanos == 0 {
		t.Fatalf("cold-start histogram empty: %+v", ls.ColdStart)
	}
	if ls.RepoModels != n {
		t.Fatalf("repo inventory %d models, want %d", ls.RepoModels, n)
	}
}

func TestOversizedModelStillLoads(t *testing.T) {
	dir := t.TempDir()
	r := openRepo(t, dir)
	if _, err := r.Put("big", 0, buildZip(t, "big", 0)); err != nil {
		t.Fatal(err)
	}
	// A budget far below one model: requests must still be served.
	m := newManager(t, dir, Config{RAMBudget: 64, LazyLoad: true})
	predict(t, m, "big")
	if state(m, "big") != StateWarm {
		t.Fatal("oversized model must load anyway — never fail for budget")
	}
}

func TestPinExemptsFromEviction(t *testing.T) {
	dir := t.TempDir()
	r := openRepo(t, dir)
	names := []string{"pinme", "x1", "x2", "x3"}
	for i, name := range names {
		if _, err := r.Put(name, 0, buildZip(t, name, float32(i))); err != nil {
			t.Fatal(err)
		}
	}
	total := calibrate(t, dir)
	m := newManager(t, dir, Config{RAMBudget: total / 3, LazyLoad: true})

	if err := m.Pin("pinme", true); err != nil {
		t.Fatal(err)
	}
	if state(m, "pinme") != StateWarm {
		t.Fatal("pinning a cold model must load it")
	}
	// Churn the others hard; the pinned model must never leave RAM.
	for round := 0; round < 6; round++ {
		for _, name := range names[1:] {
			predict(t, m, name)
			if got := state(m, "pinme"); got != StateWarm {
				t.Fatalf("pinned model evicted (state %q)", got)
			}
		}
	}
	if m.evictions.Load() == 0 {
		t.Fatal("unpinned churn must evict")
	}
	// Unpinning makes it evictable again.
	if err := m.Pin("pinme", false); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6 && state(m, "pinme") == StateWarm; round++ {
		for _, name := range names[1:] {
			predict(t, m, name)
		}
	}
	if state(m, "pinme") == StateWarm && m.cfg.RAMBudget > 0 {
		t.Log("note: unpinned model survived churn (LRU chose others); acceptable")
	}
	if err := m.Pin("ghost", true); err == nil || !errors.Is(err, runtime.ErrModelNotFound) {
		t.Fatalf("pinning an unknown model: %v", err)
	}
}

func TestModelsReportLifecycleState(t *testing.T) {
	dir := t.TempDir()
	r := openRepo(t, dir)
	for i, name := range []string{"cold1", "warm1"} {
		if _, err := r.Put(name, 0, buildZip(t, name, float32(i))); err != nil {
			t.Fatal(err)
		}
	}
	m := newManager(t, dir, Config{LazyLoad: true})
	predict(t, m, "warm1")

	infos := m.Models()
	if len(infos) != 2 {
		t.Fatalf("models %v", infos)
	}
	byName := map[string]runtime.ModelInfo{}
	for _, mi := range infos {
		byName[mi.Name] = mi
	}
	cold, warm := byName["cold1"], byName["warm1"]
	if cold.State != StateCold || cold.MemBytes <= 0 || len(cold.Versions) != 1 {
		t.Fatalf("cold info %+v", cold)
	}
	if warm.State != StateWarm || warm.MemBytes <= 0 || len(warm.Versions) != 1 {
		t.Fatalf("warm info %+v", warm)
	}
	if warm.Versions[0].ID == 0 {
		t.Fatal("warm info must come from the runtime (real version IDs)")
	}
	if cold.Versions[0].ID != 0 {
		t.Fatal("cold info is synthesized from disk (no runtime ID)")
	}

	mi, err := m.ModelInfo("cold1")
	if err != nil || mi.State != StateCold {
		t.Fatalf("cold ModelInfo %+v %v", mi, err)
	}
	if _, err := m.ModelInfo("missing"); !errors.Is(err, runtime.ErrModelNotFound) {
		t.Fatalf("missing ModelInfo: %v", err)
	}
}

func TestSetLabelOnColdModelPersists(t *testing.T) {
	dir := t.TempDir()
	r := openRepo(t, dir)
	for v := 1; v <= 2; v++ {
		if _, err := r.Put("sa", v, buildZip(t, "sa", float32(v))); err != nil {
			t.Fatal(err)
		}
	}
	m := newManager(t, dir, Config{LazyLoad: true})
	if err := m.SetLabel("sa", "stable", 2); err != nil {
		t.Fatal(err)
	}
	if state(m, "sa") != StateCold {
		t.Fatal("labeling must not load the model")
	}
	// Cold resolve follows the persisted label; the load applies it.
	if _, v, err := m.Resolve("sa"); err != nil || v != 2 {
		t.Fatalf("cold stable resolve: %d %v", v, err)
	}
	predict(t, m, "sa")
	if _, v, err := m.Resolve("sa"); err != nil || v != 2 {
		t.Fatalf("warm stable resolve: %d %v", v, err)
	}
	if err := m.SetLabel("sa", "x", 99); !errors.Is(err, runtime.ErrModelNotFound) {
		t.Fatalf("label to missing version: %v", err)
	}
}

func TestUnregisterRemovesFromDiskAndRAM(t *testing.T) {
	dir := t.TempDir()
	r := openRepo(t, dir)
	for v := 1; v <= 2; v++ {
		if _, err := r.Put("sa", v, buildZip(t, "sa", float32(v))); err != nil {
			t.Fatal(err)
		}
	}
	m := newManager(t, dir, Config{})
	predict(t, m, "sa")

	if err := m.Unregister("sa@2"); err != nil {
		t.Fatal(err)
	}
	if vs, _ := r.Versions("sa"); len(vs) != 1 || vs[0].Version != 1 {
		t.Fatalf("disk after version delete: %v", vs)
	}
	predict(t, m, "sa") // v1 still serves

	if err := m.Unregister("sa"); err != nil {
		t.Fatal(err)
	}
	if vs, _ := r.Versions("sa"); len(vs) != 0 {
		t.Fatalf("disk after model delete: %v", vs)
	}
	if _, err := m.Predict(context.Background(), "sa", "x", serving.PredictOptions{}); !errors.Is(err, runtime.ErrModelNotFound) {
		t.Fatalf("deleted model must 404: %v", err)
	}
	if got := m.ResidentBytes(); got != 0 {
		t.Fatalf("resident bytes after full delete = %d", got)
	}
	if err := m.Unregister("never"); !errors.Is(err, runtime.ErrModelNotFound) {
		t.Fatalf("unknown unregister: %v", err)
	}
}

func TestPollDiscoversNewModels(t *testing.T) {
	dir := t.TempDir()
	m := newManager(t, dir, Config{PollInterval: 5 * time.Millisecond, LazyLoad: true})

	// Publish behind the manager's back, as an offline trainer would.
	r := openRepo(t, dir)
	if _, err := r.Put("fresh", 0, buildZip(t, "fresh", 0)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.lookup("fresh") == nil {
		if time.Now().After(deadline) {
			t.Fatal("poller never discovered the new model")
		}
		time.Sleep(time.Millisecond)
	}
	if got := state(m, "fresh"); got != StateCold {
		t.Fatalf("discovered model state %q, want cold (lazy)", got)
	}
	predict(t, m, "fresh")

	// A new version of the now-warm model is registered eagerly.
	if _, err := r.Put("fresh", 0, buildZip(t, "fresh", 1)); err != nil {
		t.Fatal(err)
	}
	for {
		if _, v, err := m.Resolve("fresh@2"); err == nil && v == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("poller never registered the new version of a warm model")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestIdleManagerZeroGoroutines(t *testing.T) {
	dir := t.TempDir()
	r := openRepo(t, dir)
	if _, err := r.Put("sa", 0, buildZip(t, "sa", 0)); err != nil {
		t.Fatal(err)
	}
	m := newManager(t, dir, Config{LazyLoad: true}) // PollInterval 0: no poller
	// Baseline after construction: the wrapped runtime's executors
	// exist, the lifecycle tier has added nothing.
	base := goruntime.NumGoroutine()

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				predict(t, m, "sa")
			}
		}()
	}
	wg.Wait()

	// The lifecycle tier itself must cost zero goroutines when quiet:
	// after the burst (cold load included) the count returns to the
	// post-construction baseline.
	deadline := time.Now().Add(5 * time.Second)
	for goruntime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("idle manager leaks goroutines: base=%d now=%d", base, goruntime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}

	// With a poller, exactly that goroutine appears — and Stop removes it.
	during := goruntime.NumGoroutine()
	m2 := newManager(t, dir, Config{LazyLoad: true, PollInterval: time.Hour})
	m2.Close()
	for goruntime.NumGoroutine() > during {
		if time.Now().After(deadline) {
			t.Fatalf("poller goroutine survived Close: %d > %d", goruntime.NumGoroutine(), during)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBudgetReassertsAfterDrain: a burst of concurrent requests can
// hold more than a budget's worth of models resident at once (in-flight
// models are never eviction victims — availability wins over the cap),
// and no further cold load may ever come to run makeRoom. The budget
// must re-assert itself when the burst drains, not linger overshot.
func TestBudgetReassertsAfterDrain(t *testing.T) {
	dir := t.TempDir()
	r := openRepo(t, dir)
	names := []string{"m-a", "m-b", "m-c"}
	for i, n := range names {
		// Distinct bumps keep the weight vectors unshared: resident
		// accounting credits back what eviction ACTUALLY frees, so a
		// model must free its full charge for the budget to re-assert.
		if _, err := r.Put(n, 0, buildZip(t, n, float32(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	// Budget = half the working set: fits any one model (the trim
	// excludes the most recently served one) but not all three at once.
	total := calibrate(t, dir)
	m := newManager(t, dir, Config{RAMBudget: total / 2, LazyLoad: true})

	// Hold a lease on every model at once: each load sees the others
	// busy, eviction skips them, and all three end up resident.
	leases := make([]*managed, len(names))
	for i, n := range names {
		e, err := m.ensureWarm(n)
		if err != nil || e == nil {
			t.Fatalf("ensureWarm(%s): %v %v", n, e, err)
		}
		leases[i] = e
	}
	if got := m.ResidentBytes(); got <= m.cfg.RAMBudget {
		t.Fatalf("premise: %d in-flight models should overshoot the %d budget, resident %d",
			len(names), m.cfg.RAMBudget, got)
	}

	// Drain the burst: releasing the leases must trim residency back
	// under the budget without any new load happening.
	for _, e := range leases {
		m.releaseLease(e)
	}
	if got := m.ResidentBytes(); got > m.cfg.RAMBudget {
		t.Fatalf("resident %d still over budget %d after the burst drained", got, m.cfg.RAMBudget)
	}

	// Trimmed models are cold, not gone: the next predict reloads.
	for _, n := range names {
		predict(t, m, n)
	}
}
