package cluster

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"pretzel/internal/lifecycle"
	"pretzel/internal/repo"
	"pretzel/internal/runtime"
	"pretzel/internal/serving"
	"pretzel/internal/store"
)

// refCase is one row of the model-reference rule: the state model "m"
// is brought into through the Engine API, a reference, and the version
// it must resolve to.
type refCase struct {
	name    string
	publish int            // versions 1..publish are registered, in order
	labels  map[string]int // then these labels are set
	remove  []int          // then these versions are unregistered
	ref     string
	want    int // 0 = ErrModelNotFound
	// wantReloaded, when set, is the answer of a lifecycle node that
	// re-reads the model from disk: a load installs the published
	// versions lowest-first into an empty runtime, which hands "stable"
	// to the first — so a model that lost its stable label gets one
	// back on the next load.
	wantReloaded int
}

var refCases = []refCase{
	{name: "bare follows the stable label the first version received", publish: 2, ref: "m", want: 1},
	{name: "explicit stable label", publish: 2, ref: "m@stable", want: 1},
	{name: "bare follows a moved stable label", publish: 2, labels: map[string]int{"stable": 2}, ref: "m", want: 2},
	{name: "plain version number", publish: 2, ref: "m@2", want: 2},
	{name: "v-prefixed version number", publish: 2, ref: "m@v2", want: 2},
	{name: "label", publish: 3, labels: map[string]int{"canary": 3}, ref: "m@canary", want: 3},
	{name: "unknown label", publish: 2, ref: "m@nope"},
	{name: "unknown version", publish: 2, ref: "m@9"},
	{name: "unknown model", publish: 1, ref: "ghost"},
	{name: "no stable label, one version left", publish: 2, remove: []int{1}, ref: "m", want: 2},
	{name: "no stable label, several versions left", publish: 3, remove: []int{1}, ref: "m", wantReloaded: 2},
	{name: "no stable label, asked for by name", publish: 3, remove: []int{1}, ref: "m@stable", wantReloaded: 2},
	{name: "label whose version was deleted", publish: 2, labels: map[string]int{"canary": 2}, remove: []int{2}, ref: "m@canary"},
	{name: "deleted version", publish: 2, remove: []int{2}, ref: "m@2"},
}

// arrange brings model "m" into the case's state through the seam.
func (c refCase) arrange(t *testing.T, eng serving.Engine) {
	t.Helper()
	zip := exportPipe(t, "m")
	for v := 1; v <= c.publish; v++ {
		if res, err := eng.Register(zip, serving.RegisterOptions{}); err != nil || res.Version != v {
			t.Fatalf("publishing m@%d: %+v %v", v, res, err)
		}
	}
	for label, v := range c.labels {
		if err := eng.SetLabel("m", label, v); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range c.remove {
		if err := eng.Unregister(fmt.Sprintf("m@%d", v)); err != nil {
			t.Fatal(err)
		}
	}
}

// check asserts what resolving c.ref answers, and that a prediction on
// the same reference agrees (a Resolve that disagrees with Predict
// poisons the front end's version-keyed result cache).
func (c refCase) check(t *testing.T, eng serving.Engine, want int) {
	t.Helper()
	name, v, err := eng.Resolve(c.ref)
	_, perr := eng.Predict(context.Background(), c.ref, "a nice product", serving.PredictOptions{})
	if want == 0 {
		if !errors.Is(err, runtime.ErrModelNotFound) || !errors.Is(perr, runtime.ErrModelNotFound) {
			t.Fatalf("Resolve(%q) = %s@%d, %v; Predict: %v; want ErrModelNotFound from both", c.ref, name, v, err, perr)
		}
		return
	}
	if err != nil || name != "m" || v != want || perr != nil {
		t.Fatalf("Resolve(%q) = %s@%d, %v; Predict: %v; want m@%d", c.ref, name, v, err, perr, want)
	}
}

// TestReferenceRuleOnEveryEngine runs the one table of the reference
// rule against its three consumers: a warm runtime, a cold lifecycle
// manager (before and after the load its first predict triggers) and a
// router over an in-process node.
func TestReferenceRuleOnEveryEngine(t *testing.T) {
	for _, c := range refCases {
		t.Run(c.name, func(t *testing.T) {
			t.Run("runtime", func(t *testing.T) {
				rt := runtime.New(store.New(), runtime.Config{Executors: 1})
				t.Cleanup(rt.Close)
				local := serving.NewLocal(rt, nil)
				c.arrange(t, local)
				c.check(t, local, c.want)
			})
			t.Run("lifecycle", func(t *testing.T) {
				dir := t.TempDir()
				open := func(cfg lifecycle.Config) *lifecycle.Manager {
					rp, err := repo.Open(dir)
					if err != nil {
						t.Fatal(err)
					}
					rt := runtime.New(store.New(), runtime.Config{Executors: 1})
					mgr, err := lifecycle.New(serving.NewLocal(rt, nil), rp, cfg)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { mgr.Close() })
					return mgr
				}
				warm := open(lifecycle.Config{})
				c.arrange(t, warm)
				c.check(t, warm, c.want) // resident: the runtime's answer
				warm.Close()

				want := c.want
				if c.wantReloaded != 0 {
					want = c.wantReloaded
				}
				cold := open(lifecycle.Config{LazyLoad: true})
				if name, v, err := cold.Resolve(c.ref); want != 0 && (err != nil || name != "m" || v != want) {
					t.Fatalf("cold Resolve(%q) = %s@%d, %v; want m@%d", c.ref, name, v, err, want)
				}
				if mi, err := cold.ModelInfo("m"); err != nil || mi.State != lifecycle.StateCold {
					t.Fatalf("resolving must not load: %+v %v", mi, err)
				}
				c.check(t, cold, want) // the predict in check loads the model
				c.check(t, cold, want)
			})
			t.Run("router", func(t *testing.T) {
				_, router := newCluster(t, 1, 1)
				c.arrange(t, router)
				c.check(t, router, c.want)
			})
		})
	}
}
