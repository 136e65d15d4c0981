package runtime

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"pretzel/internal/oven"
	"pretzel/internal/vector"
)

// panicOn returns a kernel fault hook that panics for one model and
// lets every other model through.
func panicOn(model string) func(string) error {
	return func(m string) error {
		if m == model {
			panic("fault_test: injected kernel panic")
		}
		return nil
	}
}

func predictOne(rt *Runtime, model string) error {
	in, out := vector.New(0), vector.New(0)
	in.SetText("a nice product")
	return rt.PredictRequest(Request{Model: model, In: in, Out: out})
}

// TestKernelPanicIsolation is the containment contract on the
// request-response engine: a model whose kernels panic returns typed
// ErrKernelPanic, trips quarantine at the threshold, and the sibling
// model and process never notice. After the quarantine lapses (and the
// kernel stops panicking) the model serves again.
func TestKernelPanicIsolation(t *testing.T) {
	rt, os := newRT(t, Config{
		Executors:      2,
		PanicThreshold: 2,
		PanicWindow:    time.Minute,
		Quarantine:     150 * time.Millisecond,
	})
	register(t, rt, os, saPipeline(t, "good", 0), oven.DefaultOptions())
	register(t, rt, os, saPipeline(t, "bad", 0), oven.DefaultOptions())
	rt.SetKernelFault(panicOn("bad"))

	for i := 0; i < 2; i++ {
		if err := predictOne(rt, "bad"); !errors.Is(err, ErrKernelPanic) {
			t.Fatalf("panic %d: err = %v, want ErrKernelPanic", i, err)
		}
		if err := predictOne(rt, "good"); err != nil {
			t.Fatalf("sibling failed while bad panicked: %v", err)
		}
	}

	// Threshold reached: requests shed with a typed quarantine error
	// carrying the lapse time.
	err := predictOne(rt, "bad")
	if !errors.Is(err, ErrModelQuarantined) {
		t.Fatalf("after threshold: err = %v, want ErrModelQuarantined", err)
	}
	var qe *QuarantinedError
	if !errors.As(err, &qe) {
		t.Fatalf("quarantine error is %T, want *QuarantinedError", err)
	}
	if qe.Model != "bad" || qe.RetryAfter() <= 0 {
		t.Fatalf("QuarantinedError = %+v retry-after %v", qe, qe.RetryAfter())
	}
	if got := rt.Quarantined(); len(got) != 1 || got[0] != "bad" {
		t.Fatalf("Quarantined() = %v, want [bad]", got)
	}
	fs := rt.FaultStats()
	if fs.Panics != 2 || fs.Quarantines != 1 {
		t.Fatalf("FaultStats = %+v, want 2 panics / 1 quarantine", fs)
	}

	// The white-box view carries the panic counters and the captured
	// report of the last panic.
	info, err := rt.ModelInfo("bad")
	if err != nil {
		t.Fatal(err)
	}
	ml := info.Load
	if ml.Panics != 2 || !ml.Quarantined || ml.QuarantinedUntil == 0 {
		t.Fatalf("ModelLoad = %+v, want 2 panics + active quarantine", ml)
	}
	if !strings.Contains(ml.LastPanic, "injected kernel panic") {
		t.Fatalf("LastPanic %q missing panic message", ml.LastPanic)
	}

	// Sibling still clean through the whole episode.
	if err := predictOne(rt, "good"); err != nil {
		t.Fatalf("sibling failed during quarantine: %v", err)
	}

	// Fix the kernel and wait out the quarantine: the model rejoins.
	rt.SetKernelFault(nil)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := predictOne(rt, "bad"); err == nil {
			break
		} else if !errors.Is(err, ErrModelQuarantined) {
			t.Fatalf("during lapse wait: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("quarantine never lapsed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := rt.Quarantined(); len(got) != 0 {
		t.Fatalf("Quarantined() after lapse = %v, want empty", got)
	}
}

// TestKernelPanicBatchEngine drives the same containment through the
// scheduler: a panicking kernel inside a batch job must surface as
// ErrKernelPanic on the ticket without killing the executor — the next
// job on the same runtime completes.
func TestKernelPanicBatchEngine(t *testing.T) {
	rt, os := newRT(t, Config{Executors: 2, PanicThreshold: -1})
	register(t, rt, os, saPipeline(t, "good", 0), oven.DefaultOptions())
	register(t, rt, os, saPipeline(t, "bad", 0), oven.DefaultOptions())
	rt.SetKernelFault(panicOn("bad"))

	batch := func(model string) error {
		const n = 4
		ins, outs := make([]*vector.Vector, n), make([]*vector.Vector, n)
		for i := range ins {
			ins[i] = vector.New(0)
			ins[i].SetText("nice product")
			outs[i] = vector.New(0)
		}
		return rt.PredictRequestBatch(BatchRequest{Model: model, Ins: ins, Outs: outs})
	}
	for i := 0; i < 5; i++ {
		if err := batch("bad"); !errors.Is(err, ErrKernelPanic) {
			t.Fatalf("batch %d: err = %v, want ErrKernelPanic", i, err)
		}
		if err := batch("good"); err != nil {
			t.Fatalf("executor lost after panic: %v", err)
		}
	}
	// PanicThreshold < 0 disables quarantine entirely: five panics and
	// the model still answers (with panics) rather than shedding.
	if got := rt.Quarantined(); len(got) != 0 {
		t.Fatalf("Quarantined() = %v, want empty with threshold < 0", got)
	}
	if fs := rt.FaultStats(); fs.Panics != 5 || fs.Quarantines != 0 {
		t.Fatalf("FaultStats = %+v, want 5 panics / 0 quarantines", fs)
	}
}

// TestPanicWindowPrunes checks the sliding window: panics further
// apart than PanicWindow never accumulate to the threshold.
func TestPanicWindowPrunes(t *testing.T) {
	rt, os := newRT(t, Config{
		Executors:      1,
		PanicThreshold: 2,
		PanicWindow:    30 * time.Millisecond,
		Quarantine:     time.Minute,
	})
	register(t, rt, os, saPipeline(t, "flaky", 0), oven.DefaultOptions())
	rt.SetKernelFault(panicOn("flaky"))

	for i := 0; i < 3; i++ {
		if err := predictOne(rt, "flaky"); !errors.Is(err, ErrKernelPanic) {
			t.Fatalf("panic %d: err = %v, want ErrKernelPanic", i, err)
		}
		time.Sleep(50 * time.Millisecond) // let the window forget it
	}
	if got := rt.Quarantined(); len(got) != 0 {
		t.Fatalf("spaced-out panics tripped quarantine: %v", got)
	}
}

// TestFaultHookError covers the non-panic half of the hook contract: a
// hook returning an error fails the request with that error, typed and
// without any panic accounting.
func TestFaultHookError(t *testing.T) {
	rt, os := newRT(t, Config{Executors: 1})
	register(t, rt, os, saPipeline(t, "sa", 0), oven.DefaultOptions())
	injected := fmt.Errorf("%w: injected", ErrOverloaded)
	rt.SetKernelFault(func(string) error { return injected })
	if err := predictOne(rt, "sa"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want injected ErrOverloaded", err)
	}
	rt.SetKernelFault(nil)
	if err := predictOne(rt, "sa"); err != nil {
		t.Fatalf("after disarm: %v", err)
	}
	if fs := rt.FaultStats(); fs.Panics != 0 {
		t.Fatalf("error-returning hook counted as panic: %+v", fs)
	}
}
