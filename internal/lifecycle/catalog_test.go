package lifecycle

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"testing"
	"time"

	"pretzel/internal/runtime"
	"pretzel/internal/serving"
	"pretzel/internal/store"
)

// rawLookups counts the Object Store's raw-index lookups: each imported
// archive makes one per parameter-carrying operator (3 for buildZip's).
func rawLookups(m *Manager) uint64 {
	st := m.rt.ObjectStore().Stats()
	return st.RawHits + st.RawMisses
}

// TestColdLoadImportsOneVersion: with five versions of one name
// published, the first bare-name predict installs one plan and imports
// one archive — the stable version's.
func TestColdLoadImportsOneVersion(t *testing.T) {
	dir := t.TempDir()
	r := openRepo(t, dir)
	for v := 1; v <= 5; v++ {
		if _, err := r.Put("sa", v, buildZip(t, "sa", float32(v))); err != nil {
			t.Fatal(err)
		}
	}
	m := newManager(t, dir, Config{LazyLoad: true})
	predict(t, m, "sa")
	if got := m.rt.CatalogStats().Plans; got != 1 {
		t.Fatalf("plans after one cold load = %d, want 1", got)
	}
	if got := rawLookups(m); got != 3 {
		t.Fatalf("raw lookups = %d, want 3: one archive imported", got)
	}
	if got := m.coldLoads.Load(); got != 1 {
		t.Fatalf("cold loads = %d, want 1", got)
	}
}

// TestColdRegisterImportsOnce: a Register on a cold name imports its
// upload once and installs only the new version, whatever else the name
// has on disk.
func TestColdRegisterImportsOnce(t *testing.T) {
	dir := t.TempDir()
	r := openRepo(t, dir)
	for v := 1; v <= 2; v++ {
		if _, err := r.Put("sa", v, buildZip(t, "sa", float32(v))); err != nil {
			t.Fatal(err)
		}
	}
	m := newManager(t, dir, Config{LazyLoad: true})
	res, err := m.Register(buildZip(t, "sa", 3), serving.RegisterOptions{})
	if err != nil || res.Version != 3 {
		t.Fatalf("register: %+v %v", res, err)
	}
	if got := rawLookups(m); got != 3 {
		t.Fatalf("raw lookups = %d, want 3: the upload imported once", got)
	}
	if got := m.rt.CatalogStats().Plans; got != 1 {
		t.Fatalf("plans = %d, want 1", got)
	}
	if state(m, "sa") != StateCold || state(m, "sa@3") != StateWarm {
		t.Fatalf("sa@1 %q, sa@3 %q: want cold and warm", state(m, "sa"), state(m, "sa@3"))
	}
}

// TestRegisterBytesAgreeWithLocal: a manager and a bare Local report the
// same footprint split for the same uploads, because both take the one
// install path. Re-uploading a zip as v2 of its name shares everything
// with v1, so its dedup ratio is above 0.5 either way.
func TestRegisterBytesAgreeWithLocal(t *testing.T) {
	zip := buildZip(t, "twin", 0)
	m := newManager(t, t.TempDir(), Config{})
	rt := runtime.New(store.New(), runtime.Config{Executors: 1})
	defer rt.Close()
	local := serving.NewLocal(rt, nil)
	for v := 1; v <= 2; v++ {
		got, err := m.Register(zip, serving.RegisterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := local.Register(zip, serving.RegisterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Version != v || got.NewBytes != want.NewBytes || got.SharedBytes != want.SharedBytes || got.DedupRatio != want.DedupRatio {
			t.Fatalf("v%d: manager %+v, local %+v", v, got, want)
		}
		if v == 2 && got.DedupRatio <= 0.5 {
			t.Fatalf("twin upload: dedup ratio %v, want > 0.5", got.DedupRatio)
		}
	}
}

// TestWarmPredictAllocs: resolving each request against the catalog
// and leasing its version adds no allocation to the warm path: a warm
// Manager.Predict allocates no more than Local.Predict on the same
// model, and on either engine a reference through a version number or
// "stable" (a persisted label on the manager, the lowest version on the
// runtime) allocates no more than the bare name. Under the race detector
// every predict still runs, for the detector, but the counts are not
// compared: sync.Pool drops items at random there.
func TestWarmPredictAllocs(t *testing.T) {
	dir := t.TempDir()
	if _, err := openRepo(t, dir).Put("sa", 0, buildZip(t, "sa", 0)); err != nil {
		t.Fatal(err)
	}
	m := newManager(t, dir, Config{LazyLoad: true})
	predict(t, m, "sa")
	if err := m.SetLabel("sa", "stable", 1); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	run := func(eng serving.Engine, ref string) float64 {
		return testing.AllocsPerRun(200, func() {
			if _, err := eng.Predict(ctx, ref, "a nice product", serving.PredictOptions{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if mgr, local := run(m, "sa"), run(m.inner, "sa"); mgr > local && !raceEnabled {
		t.Fatalf("warm predict: manager %v allocs, local %v", mgr, local)
	}
	for _, eng := range []serving.Engine{m, m.inner} {
		bare := run(eng, "sa")
		for _, ref := range []string{"sa@1", "sa@stable"} {
			if n := run(eng, ref); n > bare && !raceEnabled {
				t.Fatalf("warm predict on %T: %s %v allocs, sa %v", eng, ref, n, bare)
			}
		}
	}
}

// TestResolveAgreesWithPredict runs a seeded mix of management steps
// through one Manager under a RAM budget that holds about two versions:
// registers with and without a label, label moves, version and
// whole-name unregisters, a publish behind the manager's back that the
// poller discovers, and the evictions all of that forces. Every version
// has its own weights. After each step, for every reference to every
// model, Resolve must name the version whose score Predict returns
// (both fail with ErrModelNotFound or neither does), and ModelInfo's
// labels must be the repository's. Unregistering everything at the end
// leaves nothing resident and an empty Object Store.
func TestResolveAgreesWithPredict(t *testing.T) {
	probe := t.TempDir()
	if _, err := openRepo(t, probe).Put("probe", 0, buildZip(t, "probe", 0)); err != nil {
		t.Fatal(err)
	}
	budget := 2 * calibrate(t, probe)

	dir := t.TempDir()
	m := newManager(t, dir, Config{RAMBudget: budget, LazyLoad: true, PollInterval: 2 * time.Millisecond})
	trainer := openRepo(t, dir)
	rng := rand.New(rand.NewSource(58))
	names := []string{"a", "b", "c"}
	labels := []string{"stable", "canary"}
	score := map[string]float32{} // "name@version" -> its own score
	seen := map[float32]bool{}
	bump := float32(0)
	upload := func(name string) []byte {
		bump += 0.05 // small steps keep the sigmoid from saturating
		return buildZip(t, name, bump)
	}
	scored := func(ref string, zip []byte) {
		s := plainScore(t, zip)
		if seen[s] {
			t.Fatalf("%s scores %v like an earlier version", ref, s)
		}
		seen[s], score[ref] = true, s
	}
	published := func(name string) []int {
		vs, _ := m.repo.Versions(name)
		out := make([]int, len(vs))
		for i, e := range vs {
			out[i] = e.Version
		}
		return out
	}

	check := func(step int, what string) {
		t.Helper()
		for _, name := range names {
			refs := []string{name}
			for _, l := range labels {
				refs = append(refs, name+"@"+l)
			}
			for _, v := range published(name) {
				refs = append(refs, fmt.Sprintf("%s@%d", name, v))
			}
			for _, ref := range refs {
				n, v, rerr := m.Resolve(ref)
				out, perr := m.Predict(context.Background(), ref, "a nice product", serving.PredictOptions{})
				if rerr != nil || perr != nil {
					if !errors.Is(rerr, runtime.ErrModelNotFound) || !errors.Is(perr, runtime.ErrModelNotFound) {
						t.Fatalf("step %d (%s): %s: Resolve %v, Predict %v", step, what, ref, rerr, perr)
					}
					continue
				}
				want, ok := score[fmt.Sprintf("%s@%d", n, v)]
				if !ok || out[0] != want {
					t.Fatalf("step %d (%s): %s resolves to %s@%d (score %v), Predict returned %v", step, what, ref, n, v, want, out[0])
				}
			}
			if len(published(name)) == 0 {
				continue
			}
			mi, err := m.ModelInfo(name)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := m.repo.Labels(name); !maps.Equal(mi.Labels, want) {
				t.Fatalf("step %d (%s): ModelInfo(%s).Labels %v, repository %v", step, what, name, mi.Labels, want)
			}
		}
	}

	for step := 0; step < 60; step++ {
		name := names[rng.Intn(len(names))]
		vs := published(name)
		var what string
		switch op := rng.Intn(10); {
		case op < 3 || len(vs) == 0:
			opts := serving.RegisterOptions{Name: name}
			if rng.Intn(2) == 0 {
				opts.Label = labels[rng.Intn(len(labels))]
			}
			zip := upload(name)
			res, err := m.Register(zip, opts)
			if err != nil {
				t.Fatal(err)
			}
			scored(fmt.Sprintf("%s@%d", name, res.Version), zip)
			what = fmt.Sprintf("register %s@%d label %q", name, res.Version, opts.Label)
		case op < 6:
			l, v := labels[rng.Intn(len(labels))], vs[rng.Intn(len(vs))]
			if err := m.SetLabel(name, l, v); err != nil {
				t.Fatal(err)
			}
			what = fmt.Sprintf("label %s@%s -> %d", name, l, v)
		case op < 8:
			ref := fmt.Sprintf("%s@%d", name, vs[rng.Intn(len(vs))])
			if err := m.Unregister(ref); err != nil {
				t.Fatal(err)
			}
			what = "unregister " + ref
		case op < 9:
			if err := m.Unregister(name); err != nil {
				t.Fatal(err)
			}
			what = "unregister " + name
		default:
			zip := upload(name)
			ent, err := trainer.Put(name, vs[len(vs)-1]+1, zip)
			if err != nil {
				t.Fatal(err)
			}
			scored(ent.Ref(), zip)
			for deadline := time.Now().Add(5 * time.Second); state(m, ent.Ref()) == ""; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("poller never discovered %s", ent.Ref())
				}
			}
			what = "publish " + ent.Ref() + " behind the manager's back"
		}
		check(step, what)
	}
	if m.evictions.Load() == 0 {
		t.Fatal("the budget never evicted: the mix does not exercise residency")
	}

	for _, name := range names {
		if len(published(name)) > 0 {
			if err := m.Unregister(name); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := m.ResidentBytes(); got != 0 {
		t.Fatalf("resident bytes after unregistering everything = %d", got)
	}
	if st := m.rt.ObjectStore().Stats(); st.Unique != 0 || st.Refs != 0 || st.Bytes != 0 || st.RawKeys != 0 {
		t.Fatalf("object store not drained: %+v", st)
	}
}
