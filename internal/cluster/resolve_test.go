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
}

var refCases = []refCase{
	{name: "unlabeled bare name is the lowest version", publish: 2, ref: "m", want: 1},
	{name: "explicit stable label", publish: 2, ref: "m@stable", want: 1},
	{name: "bare follows a moved stable label", publish: 2, labels: map[string]int{"stable": 2}, ref: "m", want: 2},
	{name: "plain version number", publish: 2, ref: "m@2", want: 2},
	{name: "v-prefixed version number", publish: 2, ref: "m@v2", want: 2},
	{name: "label", publish: 3, labels: map[string]int{"canary": 3}, ref: "m@canary", want: 3},
	{name: "unknown label", publish: 2, ref: "m@nope"},
	{name: "unknown version", publish: 2, ref: "m@9"},
	{name: "unknown model", publish: 1, ref: "ghost"},
	{name: "no stable label, one version left", publish: 2, remove: []int{1}, ref: "m", want: 2},
	{name: "no stable label, several versions left", publish: 3, remove: []int{1}, ref: "m", want: 2},
	{name: "no stable label, asked for by name", publish: 3, remove: []int{1}, ref: "m@stable", want: 2},
	{name: "label whose version was deleted", publish: 2, labels: map[string]int{"canary": 2}, remove: []int{2}, ref: "m@canary"},
	{name: "deleted version", publish: 2, remove: []int{2}, ref: "m@2"},
}

// arrange brings model "m" into the case's state through the seam.
func (c refCase) arrange(t *testing.T, eng serving.Engine) {
	t.Helper()
	c.publishAll(t, eng)
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

func (c refCase) publishAll(t *testing.T, eng serving.Engine) {
	t.Helper()
	zip := exportPipe(t, "m")
	for v := 1; v <= c.publish; v++ {
		if res, err := eng.Register(zip, serving.RegisterOptions{}); err != nil || res.Version != v {
			t.Fatalf("publishing m@%d: %+v %v", v, res, err)
		}
	}
}

// refuseLabels asserts that an engine with no model repository refuses
// every label write with ErrUnsupported and installs nothing doing so.
func (c refCase) refuseLabels(t *testing.T, eng serving.Engine) {
	t.Helper()
	c.publishAll(t, eng)
	for label, v := range c.labels {
		if err := eng.SetLabel("m", label, v); !errors.Is(err, serving.ErrUnsupported) {
			t.Fatalf("SetLabel(m, %s, %d) = %v; want ErrUnsupported", label, v, err)
		}
		_, err := eng.Register(exportPipe(t, "m"), serving.RegisterOptions{Label: label})
		if !errors.Is(err, serving.ErrUnsupported) {
			t.Fatalf("Register with label %q = %v; want ErrUnsupported", label, err)
		}
	}
	if mi, err := eng.ModelInfo("m"); err != nil || len(mi.Versions) != c.publish {
		t.Fatalf("refused label writes must install nothing: %+v %v", mi, err)
	}
}

// check asserts what resolving c.ref answers, and that a prediction on
// the same reference agrees (a Resolve that disagrees with Predict
// poisons the front end's version-keyed result cache).
func (c refCase) check(t *testing.T, eng serving.Engine) {
	t.Helper()
	name, v, err := eng.Resolve(c.ref)
	_, perr := eng.Predict(context.Background(), c.ref, "a nice product", serving.PredictOptions{})
	if c.want == 0 {
		if !errors.Is(err, runtime.ErrModelNotFound) || !errors.Is(perr, runtime.ErrModelNotFound) {
			t.Fatalf("Resolve(%q) = %s@%d, %v; Predict: %v; want ErrModelNotFound from both", c.ref, name, v, err, perr)
		}
		return
	}
	if err != nil || name != "m" || v != c.want || perr != nil {
		t.Fatalf("Resolve(%q) = %s@%d, %v; Predict: %v; want m@%d", c.ref, name, v, err, perr, c.want)
	}
}

// TestReferenceRuleOnEveryEngine runs the one table of the reference
// rule against its three consumers: a runtime, a lifecycle manager
// (warm, then cold before and after the load its first predict
// triggers) and a router. Every engine gives each case the same
// answer. A runtime keeps no labels, so on it a case that moves one
// checks instead that the move is refused, and the router serves such
// a case over a managed node.
func TestReferenceRuleOnEveryEngine(t *testing.T) {
	for _, c := range refCases {
		t.Run(c.name, func(t *testing.T) {
			t.Run("runtime", func(t *testing.T) {
				rt := runtime.New(store.New(), runtime.Config{Executors: 1})
				t.Cleanup(rt.Close)
				local := serving.NewLocal(rt, nil)
				if len(c.labels) > 0 {
					c.refuseLabels(t, local)
					return
				}
				c.arrange(t, local)
				c.check(t, local)
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
				c.check(t, warm)
				warm.Close()

				cold := open(lifecycle.Config{LazyLoad: true})
				if name, v, err := cold.Resolve(c.ref); c.want != 0 && (err != nil || name != "m" || v != c.want) {
					t.Fatalf("cold Resolve(%q) = %s@%d, %v; want m@%d", c.ref, name, v, err, c.want)
				}
				if mi, err := cold.ModelInfo("m"); err != nil || mi.State != lifecycle.StateCold {
					t.Fatalf("resolving must not load: %+v %v", mi, err)
				}
				c.check(t, cold) // the predict in check loads the model
				c.check(t, cold)
			})
			t.Run("router", func(t *testing.T) {
				var router *Router
				if len(c.labels) > 0 {
					_, router = newLifecycleCluster(t, 1, 1)
				} else {
					_, router = newCluster(t, 1, 1)
				}
				c.arrange(t, router)
				c.check(t, router)
			})
		})
	}
}
