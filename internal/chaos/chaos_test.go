package chaos

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"pretzel/internal/ml"
	"pretzel/internal/ops"
	"pretzel/internal/pipeline"
	"pretzel/internal/runtime"
	"pretzel/internal/schema"
	"pretzel/internal/serving"
	"pretzel/internal/store"
	"pretzel/internal/text"
)

// stubEngine is a minimal always-succeeding Engine for middleware
// tests that don't need real execution.
type stubEngine struct{ calls int }

func (s *stubEngine) Predict(ctx context.Context, model, input string, opts serving.PredictOptions) ([]float32, error) {
	s.calls++
	return []float32{1}, nil
}
func (s *stubEngine) PredictBatch(ctx context.Context, model string, inputs []string, opts serving.PredictOptions) ([][]float32, error) {
	out := make([][]float32, len(inputs))
	for i := range out {
		out[i] = []float32{1}
	}
	return out, nil
}
func (s *stubEngine) Resolve(ref string) (string, int, error)     { return ref, 1, nil }
func (s *stubEngine) Models() []runtime.ModelInfo                 { return nil }
func (s *stubEngine) ModelInfo(string) (runtime.ModelInfo, error) { return runtime.ModelInfo{}, nil }
func (s *stubEngine) Register([]byte, serving.RegisterOptions) (serving.RegisterResult, error) {
	return serving.RegisterResult{}, nil
}
func (s *stubEngine) Unregister(string) error            { return nil }
func (s *stubEngine) SetLabel(string, string, int) error { return nil }
func (s *stubEngine) Stats() serving.Stats               { return serving.Stats{Kind: "stub"} }
func (s *stubEngine) Ready() error                       { return nil }
func (s *stubEngine) Close() error                       { return nil }

func testModelZip(t testing.TB, name string) []byte {
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

// newLocalInjector builds an injector over a real local runtime with
// the given models registered.
func newLocalInjector(t testing.TB, seed int64, cfg runtime.Config, models ...string) *Injector {
	t.Helper()
	rt := runtime.New(store.New(), cfg)
	t.Cleanup(rt.Close)
	local := serving.NewLocal(rt, nil)
	for _, m := range models {
		if _, err := local.Register(testModelZip(t, m), serving.RegisterOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	return New(local, seed)
}

// TestDeterministicReplay: the same seed over the same traffic fires
// the same faults — a failing chaos run is a reproduction recipe.
func TestDeterministicReplay(t *testing.T) {
	pattern := func(seed int64) string {
		inj := New(&stubEngine{}, seed)
		if _, err := inj.Arm(Rule{Effect: EffectError, Error: "overloaded", Probability: 0.5}); err != nil {
			t.Fatal(err)
		}
		s := ""
		for i := 0; i < 64; i++ {
			if _, err := inj.Predict(context.Background(), "m", "x", serving.PredictOptions{}); err != nil {
				s += "x"
			} else {
				s += "."
			}
		}
		return s
	}
	a, b, c := pattern(7), pattern(7), pattern(8)
	if a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	if a == c {
		t.Fatalf("different seeds produced identical fault pattern %s", a)
	}
}

// TestSequenceAndHitCap: EveryN fires deterministically on every Nth
// matching call; MaxHits disarms the effect while keeping the rule.
func TestSequenceAndHitCap(t *testing.T) {
	inj := New(&stubEngine{}, 1)
	r, err := inj.Arm(Rule{Effect: EffectError, Error: "internal", EveryN: 3, MaxHits: 2})
	if err != nil {
		t.Fatal(err)
	}
	var failed []int
	for i := 1; i <= 12; i++ {
		if _, err := inj.Predict(context.Background(), "m", "x", serving.PredictOptions{}); err != nil {
			failed = append(failed, i)
		}
	}
	if fmt.Sprint(failed) != "[3 6]" {
		t.Fatalf("EveryN=3 MaxHits=2 fired on calls %v, want [3 6]", failed)
	}
	rules := inj.Rules()
	if len(rules) != 1 || rules[0].Hits != 2 || rules[0].ID != r.ID {
		t.Fatalf("rules snapshot %+v", rules)
	}
	if err := inj.Disarm(r.ID); err != nil {
		t.Fatal(err)
	}
	if len(inj.Rules()) != 0 {
		t.Fatal("disarm left rules behind")
	}
}

// TestModelScoping: a rule scoped to one model must not touch others.
func TestModelScoping(t *testing.T) {
	inj := New(&stubEngine{}, 1)
	if _, err := inj.Arm(Rule{Effect: EffectError, Error: "overloaded", Model: "bad"}); err != nil {
		t.Fatal(err)
	}
	if _, err := inj.Predict(context.Background(), "bad@2", "x", serving.PredictOptions{}); !errors.Is(err, runtime.ErrOverloaded) {
		t.Fatalf("scoped rule must hit bad@2, got %v", err)
	}
	if _, err := inj.Predict(context.Background(), "good", "x", serving.PredictOptions{}); err != nil {
		t.Fatalf("scoped rule leaked onto good: %v", err)
	}
}

// TestBlackout: an armed blackout takes the node out of service —
// predicts fail, readiness fails — and disarming restores it.
func TestBlackout(t *testing.T) {
	inj := New(&stubEngine{}, 1)
	r, err := inj.Arm(Rule{Effect: EffectBlackout})
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Ready(); !errors.Is(err, serving.ErrNotReady) {
		t.Fatalf("blackout Ready = %v", err)
	}
	if _, err := inj.Predict(context.Background(), "m", "x", serving.PredictOptions{}); !errors.Is(err, serving.ErrNotReady) {
		t.Fatalf("blackout Predict = %v", err)
	}
	if err := inj.Disarm(r.ID); err != nil {
		t.Fatal(err)
	}
	if err := inj.Ready(); err != nil {
		t.Fatalf("Ready after disarm = %v", err)
	}
	if _, err := inj.Predict(context.Background(), "m", "x", serving.PredictOptions{}); err != nil {
		t.Fatalf("Predict after disarm = %v", err)
	}
}

// TestLatencyInjection: a latency rule delays the call without
// failing it, and respects the caller's context.
func TestLatencyInjection(t *testing.T) {
	inj := New(&stubEngine{}, 1)
	if _, err := inj.Arm(Rule{Effect: EffectLatency, LatencyMS: 30}); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if _, err := inj.Predict(context.Background(), "m", "x", serving.PredictOptions{}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d < 25*time.Millisecond {
		t.Fatalf("latency rule injected only %v", d)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := inj.Predict(ctx, "m", "x", serving.PredictOptions{}); !errors.Is(err, runtime.ErrDeadlineExceeded) {
		t.Fatalf("ctx-bounded latency = %v", err)
	}
}

// TestArmValidation: malformed rules and panic rules over engines
// without a kernel fault hook are refused at arm time.
func TestArmValidation(t *testing.T) {
	inj := New(&stubEngine{}, 1)
	for _, bad := range []Rule{
		{Effect: "melt"},
		{Effect: EffectError, Error: "nonsense"},
		{Effect: EffectLatency},
		{Effect: EffectError, Error: "overloaded", Probability: 1.5},
		{Effect: EffectError, Error: "overloaded", Op: "resolve"},
		{Effect: EffectPanic}, // stub has no kernel fault hook
	} {
		if _, err := inj.Arm(bad); err == nil {
			t.Fatalf("rule %+v armed without error", bad)
		}
	}
}

// TestPanicInjectionAndQuarantine is the acceptance scenario: a seeded
// injector drives kernel panics in ONE model of a shared runtime.
// Requests to the panicking model fail with the typed ErrKernelPanic;
// after the threshold the model is quarantined (ErrModelQuarantined
// with a Retry-After hint); the sibling model never fails and the
// process never dies.
func TestPanicInjectionAndQuarantine(t *testing.T) {
	inj := newLocalInjector(t, 42, runtime.Config{
		Executors:      2,
		PanicThreshold: 3,
		PanicWindow:    time.Minute,
		Quarantine:     time.Minute,
	}, "good", "bad")
	if _, err := inj.Arm(Rule{Effect: EffectPanic, Model: "bad"}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	panics, quarantined := 0, 0
	for i := 0; i < 10; i++ {
		_, err := inj.Predict(ctx, "bad", "a nice product", serving.PredictOptions{})
		switch {
		case errors.Is(err, runtime.ErrKernelPanic):
			panics++
		case errors.Is(err, runtime.ErrModelQuarantined):
			quarantined++
			var qe *runtime.QuarantinedError
			if !errors.As(err, &qe) || qe.RetryAfter() <= 0 {
				t.Fatalf("quarantine error carries no retry hint: %v", err)
			}
		default:
			t.Fatalf("panicking model returned %v", err)
		}
		// The sibling keeps serving through every one of its neighbor's
		// panics: containment means blast radius one model.
		if pred, err := inj.Predict(ctx, "good", "a nice product", serving.PredictOptions{}); err != nil || len(pred) == 0 {
			t.Fatalf("sibling model failed during chaos: %v", err)
		}
	}
	if panics != 3 || quarantined != 7 {
		t.Fatalf("got %d panics then %d quarantined sheds, want 3 then 7", panics, quarantined)
	}
	// The quarantine report is not the injector's to forward: it is
	// found on the engine below.
	q, ok := serving.As[interface{ Quarantined() []string }](inj)
	if !ok || len(q.Quarantined()) != 1 || q.Quarantined()[0] != "bad" {
		t.Fatalf("quarantine report through the injector: found=%v %v", ok, q)
	}
	st := inj.Stats()
	if st.Faults == nil || st.Faults.Panics != 3 || st.Faults.Quarantines != 1 {
		t.Fatalf("fault stats %+v", st.Faults)
	}
	if ml, ok := st.Models["bad"]; !ok || ml.Panics != 3 || !ml.Quarantined || ml.LastPanic == "" {
		t.Fatalf("model load %+v", st.Models["bad"])
	}
	// Disarming removes the kernel hook: the quarantine still holds
	// until it lapses, but nothing panics anymore.
	inj.Reset()
	if _, err := inj.Predict(ctx, "bad", "x", serving.PredictOptions{}); !errors.Is(err, runtime.ErrModelQuarantined) {
		t.Fatalf("quarantine must outlive the rule: %v", err)
	}
}

// TestPanicInjectionBatchPath: the batch engine's executors contain
// injected kernel panics the same way — the job fails typed, the
// executor goroutine survives, and the next batch runs.
func TestPanicInjectionBatchPath(t *testing.T) {
	inj := newLocalInjector(t, 7, runtime.Config{
		Executors:      2,
		PanicThreshold: -1, // quarantine off: every batch panics typed
	}, "bad")
	if _, err := inj.Arm(Rule{Effect: EffectPanic, Model: "bad", EveryN: 2}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sawPanic := false
	for i := 0; i < 8; i++ {
		_, err := inj.PredictBatch(ctx, "bad", []string{"a", "b", "c"}, serving.PredictOptions{})
		if err != nil {
			if !errors.Is(err, runtime.ErrKernelPanic) {
				t.Fatalf("batch error not typed: %v", err)
			}
			sawPanic = true
		}
	}
	if !sawPanic {
		t.Fatal("EveryN panic rule never fired on the batch path")
	}
	// Executors survived: a clean batch still completes.
	inj.Reset()
	if _, err := inj.PredictBatch(ctx, "bad", []string{"a nice product"}, serving.PredictOptions{}); err != nil {
		t.Fatalf("batch engine dead after contained panics: %v", err)
	}
}
