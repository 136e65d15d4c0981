package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"pretzel/internal/metrics"
	"pretzel/internal/oven"
	"pretzel/internal/runtime"
	"pretzel/internal/store"
	"pretzel/internal/vector"
)

// hpProbe serves n high-priority requests back to back and returns
// their latency histogram (the uncontended reserved-traffic baseline).
func hpProbe(t *testing.T, rt *runtime.Runtime, name, input string, n int) *metrics.Histogram {
	t.Helper()
	h := &metrics.Histogram{}
	in, out := vector.New(0), vector.New(0)
	for i := 0; i < n; i++ {
		in.SetText(input)
		t0 := time.Now()
		tk, err := rt.SubmitRequestBatch(runtime.BatchRequest{
			Model:    name,
			Ins:      []*vector.Vector{in},
			Outs:     []*vector.Vector{out},
			Priority: runtime.PriorityHigh,
		})
		if err != nil {
			t.Fatalf("uncontended high-priority submit: %v", err)
		}
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
		h.Record(time.Since(t0))
	}
	return h
}

// TestOverloadAcceptance is the PR's acceptance test: an open-loop
// flood at 2× measured capacity must (a) shed best-effort arrivals at
// admission with ErrOverloaded and nothing else, (b) serve every
// reserved high-priority probe, and (c) keep the probes' p99 within 2×
// of its uncontended p99 — modulo a documented single-core noise floor,
// since on a GOMAXPROCS=1 runner any saturating flood costs the probe
// goroutine Go-scheduler quanta (~10ms) that admission control cannot
// remove, and the power-of-two histogram quantizes to 2× steps.
func TestOverloadAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("open-loop flood skipped in -short")
	}
	if raceEnabled {
		// Race instrumentation inflates the closed-loop round trip far
		// more than the open-loop service rate, so "2× measured
		// capacity" is no longer overload and nothing sheds. The
		// deterministic shed paths stay race-covered by the runtime
		// admission tests and the frontend saturating-burst test.
		t.Skip("capacity-relative flood is meaningless under the race detector")
	}
	sa, err := sharedEnv.SA()
	if err != nil {
		t.Fatal(err)
	}
	names := planNames(sa.Files)
	if len(names) > 4 {
		names = names[:4]
	}
	files := sa.Files[:len(names)]
	input := sa.Set.TestInputs[0]

	objStore := store.New()
	// The in-flight cap is deliberately small relative to the flood so
	// the 2×-capacity run reliably fills it and sheds, even when the
	// race detector slows both the pacer and the service rate.
	rt := runtime.New(objStore, runtime.Config{
		Executors:            2,
		MaxInFlight:          128,
		ReservedHighPriority: 32,
	})
	defer rt.Close()
	if _, err := loadPretzel(rt, objStore, files, oven.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if err := warmRuntime(rt, names, input, 2); err != nil {
		t.Fatal(err)
	}

	capacity := measureCapacity(rt, names, input, 150*time.Millisecond)
	if capacity <= 0 {
		t.Fatal("capacity measurement produced zero")
	}
	uncontended := hpProbe(t, rt, names[0], input, 200)

	res := openLoopRun(rt, names, input, 2*capacity, 400*time.Millisecond)
	if res.Failed > 0 {
		t.Fatalf("%d best-effort requests failed with something other than ErrOverloaded", res.Failed)
	}
	if res.Shed == 0 {
		t.Fatalf("2x-capacity flood must shed best-effort load at admission: %+v", res)
	}
	if res.Completed == 0 {
		t.Fatalf("overloaded server must still serve admitted load: %+v", res)
	}
	if res.HPFailed > 0 || res.HPCount == 0 {
		t.Fatalf("reserved traffic must never be shed: served=%d failed=%d", res.HPCount, res.HPFailed)
	}

	uncP99, hpP99 := uncontended.Percentile(99), res.HPLat.Percentile(99)
	// Single-core noise floor: ~2 scheduler quanta + one histogram
	// bucket. On multi-core runners 2× the uncontended p99 dominates.
	limit := 2 * uncP99
	if floor := 25 * time.Millisecond; limit < floor {
		limit = floor
	}
	if hpP99 > limit {
		t.Fatalf("high-priority p99 %v under 2x flood exceeds limit %v (uncontended p99 %v)",
			hpP99, limit, uncP99)
	}
	t.Logf("capacity=%.0f req/s shed=%d/%d hp: uncontended p99=%v contended p99=%v",
		capacity, res.Shed, res.Offered, uncP99, hpP99)
}

// TestOverloadExperimentOutput runs the overload driver at quick scale
// and sanity-checks its report shape (goodput table + admission line).
func TestOverloadExperimentOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep skipped in -short")
	}
	var buf bytes.Buffer
	if err := Run(&buf, sharedEnv, "overload"); err != nil {
		t.Fatalf("overload: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"closed-loop capacity", "goodput", "shed", "admission:", "hp-p99"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
