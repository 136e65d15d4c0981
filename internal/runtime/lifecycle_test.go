package runtime

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"pretzel/internal/oven"
	"pretzel/internal/vector"
)

// TestUnregisterUnknown is the regression test for Unregister silently
// succeeding on never-registered names.
func TestUnregisterUnknown(t *testing.T) {
	rt, _ := newRT(t, Config{Executors: 1})
	if err := rt.Unregister("never-registered"); !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("unknown name must return ErrModelNotFound, got %v", err)
	}
	register(t, rt, nil, saPipeline(t, "sa", 0), oven.DefaultOptions())
	if err := rt.Unregister("sa@7"); !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("unknown version must return ErrModelNotFound, got %v", err)
	}
	if err := rt.Unregister("sa"); err != nil {
		t.Fatalf("known name must unregister: %v", err)
	}
	if err := rt.Unregister("sa"); !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("second unregister must fail, got %v", err)
	}
}

func mustCompile(t testing.TB, rt *Runtime, name string, bump float32) *Registered {
	t.Helper()
	pl, err := oven.Compile(saPipeline(t, name, bump), rt.ObjectStore(), oven.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	baseName, _ := SplitRef(name)
	r, err := rt.RegisterVersion(pl, baseName, 0)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestVersionNumbering covers what the runtime does to version
// numbers; which version a reference then selects is the table in
// internal/cluster/resolve_test.go, run against every engine.
func TestVersionNumbering(t *testing.T) {
	rt, _ := newRT(t, Config{Executors: 1})
	r1 := mustCompile(t, rt, "sa", 0)
	if r1.Version != 1 {
		t.Fatalf("first version = %d", r1.Version)
	}
	r2 := mustCompile(t, rt, "sa", 1)
	if r2.Version != 2 {
		t.Fatalf("second version = %d", r2.Version)
	}
	if err := rt.Unregister("sa@2"); err != nil {
		t.Fatal(err)
	}
	info, err := rt.ModelInfo("sa")
	if err != nil {
		t.Fatal(err)
	}
	if info.Labels != nil || len(info.Versions) != 1 || info.Versions[0].Version != 1 {
		t.Fatalf("want v1 alone and no labels (the repository keeps those): %+v", info)
	}
	// The next free version number is taken from what is installed now.
	if r := mustCompile(t, rt, "sa", 2); r.Version != 2 {
		t.Fatalf("version after delete = %d", r.Version)
	}
}

// TestHotSwapUnderConcurrentPredict: registering v2 and retiring v1
// while Predict traffic hammers the bare name must fail zero requests
// (run with -race). The bare name follows the lowest installed version,
// so traffic stays on v1 until Unregister takes it away, then moves to
// v2; requests already in flight on v1 finish there.
func TestHotSwapUnderConcurrentPredict(t *testing.T) {
	rt, _ := newRT(t, Config{Executors: 2})
	mustCompile(t, rt, "sa", 0)

	const goroutines = 8
	stop := make(chan struct{})
	errCh := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in, out := vector.New(0), vector.New(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				in.SetText("nice product")
				if err := rt.PredictRequest(Request{Model: "sa", In: in, Out: out}); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}

	// Roll out v2 mid-traffic, then retire v1.
	time.Sleep(5 * time.Millisecond)
	mustCompile(t, rt, "sa", 1)
	if _, v, err := rt.Resolve("sa"); err != nil || v != 1 {
		t.Fatalf("bare name with v1 and v2 installed = v%d, %v; want v1", v, err)
	}
	time.Sleep(5 * time.Millisecond)
	if err := rt.Unregister("sa@1"); err != nil {
		t.Fatal(err)
	}
	if _, v, err := rt.Resolve("sa"); err != nil || v != 2 {
		t.Fatalf("bare name after v1 retired = v%d, %v; want v2", v, err)
	}
	time.Sleep(5 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("request failed during hot swap: %v", err)
	default:
	}
}

// TestExpiredRequestNeverReachesKernels is the acceptance test for
// deadline enforcement on the request-response engine: a request whose
// context already expired must return ErrDeadlineExceeded without a
// single stage execution.
func TestExpiredRequestNeverReachesKernels(t *testing.T) {
	rt, _ := newRT(t, Config{Executors: 1})
	register(t, rt, nil, saPipeline(t, "sa", 0), oven.DefaultOptions())
	pl, err := rt.LookupPlan("sa")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	in, out := vector.New(0), vector.New(0)
	in.SetText("nice")
	err = rt.PredictRequest(Request{Ctx: ctx, Model: "sa", In: in, Out: out})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("want ErrDeadlineExceeded, got %v", err)
	}
	// Absolute deadlines without a context behave the same.
	err = rt.PredictRequest(Request{Model: "sa", In: in, Out: out, Deadline: time.Now().Add(-time.Second)})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("deadline-only: want ErrDeadlineExceeded, got %v", err)
	}
	// Canceled contexts are a distinct typed error.
	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	err = rt.PredictRequest(Request{Ctx: cctx, Model: "sa", In: in, Out: out})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	for i, s := range pl.Stages {
		if st := s.Stats(); st.Execs != 0 {
			t.Fatalf("stage %d ran %d times for expired requests", i, st.Execs)
		}
	}

	// A live request then runs and the counters move.
	if err := rt.PredictRequest(Request{Model: "sa", In: in, Out: out}); err != nil {
		t.Fatal(err)
	}
	for i, s := range pl.Stages {
		st := s.Stats()
		if st.Execs != 1 {
			t.Fatalf("stage %d execs = %d", i, st.Execs)
		}
		if st.TotalNanos == 0 {
			t.Fatalf("stage %d recorded no latency", i)
		}
	}
}

// TestExpiredSubmitDroppedBeforeDispatch covers the batch engine: an
// expired job is shed at admission / before stage dispatch and no
// kernel runs.
func TestExpiredSubmitDroppedBeforeDispatch(t *testing.T) {
	rt, _ := newRT(t, Config{Executors: 2})
	register(t, rt, nil, saPipeline(t, "sa", 0), oven.DefaultOptions())
	pl, err := rt.LookupPlan("sa")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	in, out := vector.New(0), vector.New(0)
	in.SetText("nice")
	tk, err := rt.SubmitRequestBatch(BatchRequest{Ctx: ctx, Model: "sa", Ins: []*vector.Vector{in}, Outs: []*vector.Vector{out}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("want ErrDeadlineExceeded, got %v", err)
	}
	for i, s := range pl.Stages {
		if st := s.Stats(); st.Execs != 0 {
			t.Fatalf("stage %d ran %d times for an expired job", i, st.Execs)
		}
	}
	st := rt.SchedStats()
	if st.Expired == 0 {
		t.Fatalf("scheduler must account the expired job: %+v", st)
	}
	// The pre-submit deadline check rejects immediately.
	_, err = rt.SubmitRequestBatch(BatchRequest{
		Model:    "sa",
		Ins:      []*vector.Vector{in},
		Outs:     []*vector.Vector{out},
		Deadline: time.Now().Add(-time.Second),
	})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("pre-submit check: want ErrDeadlineExceeded, got %v", err)
	}
}

func TestTypedErrors(t *testing.T) {
	rt, _ := newRT(t, Config{Executors: 1})
	in, out := vector.New(0), vector.New(0)
	in.SetText("x")
	if err := rt.PredictRequest(Request{Model: "ghost", In: in, Out: out}); !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("want ErrModelNotFound, got %v", err)
	}
	if err := rt.PredictRequest(Request{Model: "m"}); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("nil vectors: want ErrInvalidInput, got %v", err)
	}
	register(t, rt, nil, saPipeline(t, "sa", 0), oven.DefaultOptions())
	if err := rt.PredictRequestBatch(BatchRequest{Model: "sa", Ins: []*vector.Vector{in}, Outs: nil}); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("batch mismatch: want ErrInvalidInput, got %v", err)
	}

	rtc := New(nil, Config{Executors: 1})
	plc, err := oven.Compile(saPipeline(t, "sa", 0), nil, oven.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rtc.Register(plc); err != nil {
		t.Fatal(err)
	}
	rtc.Close()
	if err := rtc.PredictRequest(Request{Model: "sa", In: in, Out: out}); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed predict: want ErrClosed, got %v", err)
	}
	if _, err := rtc.SubmitRequestBatch(BatchRequest{
		Model: "sa",
		Ins:   []*vector.Vector{in},
		Outs:  []*vector.Vector{out},
	}); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed submit: want ErrClosed, got %v", err)
	}
}

func TestTicketResolvedModel(t *testing.T) {
	rt, _ := newRT(t, Config{Executors: 1})
	mustCompile(t, rt, "sa", 0)
	in, out := vector.New(0), vector.New(0)
	in.SetText("nice")
	tk, err := rt.SubmitRequestBatch(BatchRequest{Model: "sa", Ins: []*vector.Vector{in}, Outs: []*vector.Vector{out}})
	if err != nil {
		t.Fatal(err)
	}
	if tk.Model != "sa@1" {
		t.Fatalf("ticket model = %q", tk.Model)
	}
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterWithVersionedName(t *testing.T) {
	rt, _ := newRT(t, Config{Executors: 1})
	pl, err := oven.Compile(saPipeline(t, "sa@3", 0), rt.ObjectStore(), oven.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Register(pl); err != nil {
		t.Fatal(err)
	}
	if _, v, err := rt.Resolve("sa"); err != nil || v != 3 {
		t.Fatalf("resolve = v%d, %v", v, err)
	}
	// Same version twice is a conflict.
	if _, err := rt.Register(pl); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("duplicate version: %v", err)
	}
	// A non-numeric ref in a plan name is rejected.
	pl2, err := oven.Compile(saPipeline(t, "sa@latest", 0), rt.ObjectStore(), oven.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Register(pl2); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("label-ref registration: %v", err)
	}
}

func TestUnregisterDrainsInflight(t *testing.T) {
	rt, _ := newRT(t, Config{Executors: 2})
	mustCompile(t, rt, "sa", 0)
	// Hold an in-flight acquisition, then unregister concurrently.
	r, err := rt.acquire("sa")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- rt.Unregister("sa") }()
	select {
	case <-done:
		t.Fatal("Unregister returned while a request was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	r.release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
