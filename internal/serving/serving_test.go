package serving

import (
	"context"
	"errors"
	"testing"
	"time"

	"pretzel/internal/ml"
	"pretzel/internal/ops"
	"pretzel/internal/pipeline"
	"pretzel/internal/runtime"
	"pretzel/internal/schema"
	"pretzel/internal/store"
	"pretzel/internal/text"
	"pretzel/internal/vector"
)

func newTextVec(s string) *vector.Vector {
	v := vector.New(0)
	v.SetText(s)
	return v
}

// testZip exports a deterministic little SA pipeline as model-file
// bytes.
func testZip(t testing.TB, name string) []byte {
	t.Helper()
	cb, wb := text.NewDictBuilder(), text.NewDictBuilder()
	for _, doc := range []string{"nice product great", "bad refund awful"} {
		toks := text.Tokenize(doc, nil)
		for _, tok := range toks {
			text.ObserveCharNgrams(cb, []byte(tok), 2, 3)
		}
		text.ObserveWordNgrams(wb, toks, 2, nil)
	}
	cd, wd := cb.Build(0), wb.Build(0)
	weights := make([]float32, cd.Size()+wd.Size())
	if ix := wd.Lookup("nice"); ix >= 0 {
		weights[cd.Size()+int(ix)] = 3
	}
	p := &pipeline.Pipeline{
		Name:        name,
		InputSchema: schema.Text("Text"),
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

func newLocal(t testing.TB, cfg runtime.Config) *Local {
	t.Helper()
	rt := runtime.New(store.New(), cfg)
	t.Cleanup(rt.Close)
	return NewLocal(rt, nil)
}

func TestLocalRegisterAndPredict(t *testing.T) {
	eng := newLocal(t, runtime.Config{Executors: 2})
	reg, err := eng.Register(testZip(t, "sa"), RegisterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if reg.Name != "sa" || reg.Version != 1 {
		t.Fatalf("register %+v", reg)
	}
	pred, err := eng.Predict(context.Background(), "sa", "a nice product", PredictOptions{})
	if err != nil || len(pred) != 1 || pred[0] <= 0.5 {
		t.Fatalf("predict %v %v", pred, err)
	}
	preds, err := eng.PredictBatch(context.Background(), "sa", []string{"nice", "awful"}, PredictOptions{})
	if err != nil || len(preds) != 2 || len(preds[0]) != 1 {
		t.Fatalf("batch %v %v", preds, err)
	}
	if name, v, err := eng.Resolve("sa@stable"); err != nil || name != "sa" || v != 1 {
		t.Fatalf("resolve %s %d %v", name, v, err)
	}
	if got := eng.Models(); len(got) != 1 || got[0].Name != "sa" {
		t.Fatalf("models %+v", got)
	}
	if _, err := eng.ModelInfo("nope"); !errors.Is(err, runtime.ErrModelNotFound) {
		t.Fatalf("missing info: %v", err)
	}
	st := eng.Stats()
	if st.Kind != "local" || st.Catalog.Models != 1 || st.MemBytes == 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestLocalRegisterLifecycle(t *testing.T) {
	eng := newLocal(t, runtime.Config{Executors: 1})
	if _, err := eng.Register([]byte("not a zip"), RegisterOptions{}); !errors.Is(err, ErrBadModel) {
		t.Fatalf("garbage upload: %v", err)
	}
	zip := testZip(t, "m")
	if _, err := eng.Register(zip, RegisterOptions{Version: 1}); err != nil {
		t.Fatal(err)
	}
	// Duplicate version: passes through untyped (HTTP 409).
	if _, err := eng.Register(zip, RegisterOptions{Version: 1}); err == nil || errors.Is(err, ErrBadModel) {
		t.Fatalf("duplicate version: %v", err)
	}
	// Labels live in a model repository: without one, a label on the
	// registration is refused before anything installs, and so is a
	// label move.
	if _, err := eng.Register(zip, RegisterOptions{Name: "m", Version: 2, Label: "canary"}); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("register with label: %v", err)
	}
	if err := eng.SetLabel("m", "stable", 1); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("set label: %v", err)
	}
	if _, err := eng.Register(zip, RegisterOptions{Name: "m", Version: 2}); err != nil {
		t.Fatalf("version 2 must still be free: %v", err)
	}
	if err := eng.Unregister("m@1"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Unregister("m@1"); !errors.Is(err, runtime.ErrModelNotFound) {
		t.Fatalf("double unregister: %v", err)
	}
}

// TestRegisterFailureReleasesInterned: a Register whose version
// registration fails must give the compile's interned parameter
// references back to the Object Store, or repeated failed uploads
// strand refcounts (and bytes) there forever.
func TestRegisterFailureReleasesInterned(t *testing.T) {
	rt := runtime.New(store.New(), runtime.Config{Executors: 1})
	t.Cleanup(rt.Close)
	eng := NewLocal(rt, nil)
	zip := testZip(t, "m")
	if _, err := eng.Register(zip, RegisterOptions{Version: 1}); err != nil {
		t.Fatal(err)
	}
	base := rt.ObjectStore().Stats()
	// Duplicate version: Compile interns a second reference to every
	// parameter before RegisterVersion fails.
	if _, err := eng.Register(zip, RegisterOptions{Version: 1}); err == nil {
		t.Fatal("duplicate register must fail")
	}
	if got := rt.ObjectStore().Stats(); got.Unique != base.Unique || got.Bytes != base.Bytes {
		t.Fatalf("store grew across failed register: %+v -> %+v", base, got)
	}
	// The surviving registration owns exactly one reference per
	// parameter: releasing it must drain the store to empty. A leaked
	// refcount from the failed register would keep entries alive.
	if err := rt.Unregister("m"); err != nil {
		t.Fatal(err)
	}
	if got := rt.ObjectStore().Stats(); got.Unique != 0 || got.Bytes != 0 {
		t.Fatalf("failed register leaked store references: %+v", got)
	}
}

func TestLocalReady(t *testing.T) {
	rt := runtime.New(store.New(), runtime.Config{Executors: 1})
	eng := NewLocal(rt, nil)
	if err := eng.Ready(); err != nil {
		t.Fatalf("fresh engine not ready: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Ready(); !errors.Is(err, ErrNotReady) {
		t.Fatalf("closed engine ready: %v", err)
	}
	// Closed runtime also fails predicts with the typed sentinel.
	if _, err := eng.Predict(context.Background(), "x", "y", PredictOptions{}); !errors.Is(err, runtime.ErrClosed) {
		t.Fatalf("closed predict: %v", err)
	}
}

// TestLocalReadySaturated: a node at its global in-flight ceiling
// reports not-ready so cluster health checks stop routing to it.
func TestLocalReadySaturated(t *testing.T) {
	rt := runtime.New(store.New(), runtime.Config{Executors: 1, MaxInFlight: 1})
	t.Cleanup(rt.Close)
	eng := NewLocal(rt, nil)
	if _, err := eng.Register(testZip(t, "sa"), RegisterOptions{}); err != nil {
		t.Fatal(err)
	}
	// Fill the only admission slot with a ticket that is never waited.
	tk, err := rt.SubmitRequestBatch(runtime.BatchRequest{
		Model:    "sa",
		Ins:      []*vector.Vector{newTextVec("x")},
		Outs:     []*vector.Vector{newTextVec("")},
		Priority: runtime.PriorityHigh,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tk.Wait() }()
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if eng.Ready() != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// The slot may already have drained (fast pipeline); only assert
	// the mapping when saturation is still observable.
	if ad := rt.AdmissionStats(); ad.InFlight >= int64(ad.MaxInFlight) {
		if err := eng.Ready(); !errors.Is(err, ErrNotReady) {
			t.Fatalf("saturated engine ready: %v", err)
		}
	}
}

// wrapper is a minimal middleware: it embeds the engine it wraps and
// exposes it through Unwrap.
type wrapper struct{ Engine }

func (w wrapper) Unwrap() Engine { return w.Engine }

// pinWrapper is a middleware that adds a capability of its own.
type pinWrapper struct {
	wrapper
	pinned string
}

func (p *pinWrapper) Pin(name string, _ bool) error { p.pinned = name; return nil }

// TestAsWalksTheChain: a capability is found on whichever engine of a
// middleware stack implements it, the outermost implementer wins, and a
// capability nobody implements is reported absent — embedding alone
// must not make a wrapper look like it has one.
func TestAsWalksTheChain(t *testing.T) {
	rt := runtime.New(store.New(), runtime.Config{Executors: 1})
	t.Cleanup(rt.Close)
	local := NewLocal(rt, nil)
	type pinner interface{ Pin(string, bool) error }
	type quarantiner interface{ Quarantined() []string }

	inner := &pinWrapper{wrapper: wrapper{local}}
	outer := &pinWrapper{wrapper: wrapper{wrapper{inner}}}
	var stack Engine = wrapper{outer}

	if q, ok := As[quarantiner](stack); !ok || q != quarantiner(local) {
		t.Fatalf("Local's capability through three wrappers: %v %v", q, ok)
	}
	p, ok := As[pinner](stack)
	if !ok || p.Pin("m", true) != nil || outer.pinned != "m" || inner.pinned != "" {
		t.Fatalf("outermost implementer must win: ok=%v outer=%q inner=%q", ok, outer.pinned, inner.pinned)
	}
	if l, ok := As[*Local](stack); !ok || l != local {
		t.Fatalf("concrete type lookup: %v %v", l, ok)
	}
	if _, ok := As[pinner](Engine(wrapper{local})); ok {
		t.Fatal("a wrapper that only embeds Engine must not gain Pin")
	}
	if _, ok := As[interface{ AddMember(string, string) error }](stack); ok {
		t.Fatal("nobody in the stack administers members")
	}
	if _, ok := As[pinner](nil); ok {
		t.Fatal("nil engine has no capabilities")
	}
}
