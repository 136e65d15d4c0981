package runtime

import (
	"errors"
	"testing"
	"time"

	"pretzel/internal/oven"
	"pretzel/internal/vector"
)

// TestAdmitExitAccounting drives the admission state machine directly:
// global and per-model limits, the high-priority reservation, and the
// balance invariant (every admit pairs with one exit).
func TestAdmitExitAccounting(t *testing.T) {
	rt, os := newRT(t, Config{Executors: 1, MaxInFlight: 2, ReservedHighPriority: 1, MaxInFlightPerModel: 1})
	register(t, rt, os, saPipeline(t, "sa", 0), oven.DefaultOptions())
	r, err := rt.acquire("sa")
	if err != nil {
		t.Fatal(err)
	}
	defer r.release()

	// Slot 1 of 2: best-effort fits (allowed = 2 - 1 reserved = 1).
	if err := rt.admit(r, PriorityNormal); err != nil {
		t.Fatalf("first best-effort admit: %v", err)
	}
	// A second best-effort request hits the global best-effort limit.
	if err := rt.admit(r, PriorityNormal); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second best-effort admit: %v", err)
	}
	// High priority uses the reserved headroom and bypasses the
	// per-model limit.
	if err := rt.admit(r, PriorityHigh); err != nil {
		t.Fatalf("high-priority admit into reserved slot: %v", err)
	}
	// The global hard limit still binds high priority.
	if err := rt.admit(r, PriorityHigh); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("high-priority admit past MaxInFlight: %v", err)
	}

	st := rt.AdmissionStats()
	if st.InFlight != 2 || st.Shed != 2 {
		t.Fatalf("admission stats %+v", st)
	}
	if st.MaxInFlight != 2 || st.ReservedHighPriority != 1 || st.MaxInFlightPerModel != 1 {
		t.Fatalf("limits not surfaced: %+v", st)
	}
	load := rt.ModelLoads()["sa"]
	if load.Shed != 2 {
		t.Fatalf("model load %+v", load)
	}

	rt.exit(r)
	rt.exit(r)
	if st := rt.AdmissionStats(); st.InFlight != 0 {
		t.Fatalf("in-flight must balance to zero: %+v", st)
	}
	if load := rt.ModelLoads()["sa"]; load.InFlight != 0 {
		t.Fatalf("per-model in-flight must balance to zero: %+v", load)
	}
}

// TestPerModelLimitIsolatesModels: one model at its per-model limit
// does not affect admission for another model.
func TestPerModelLimitIsolatesModels(t *testing.T) {
	rt, os := newRT(t, Config{Executors: 1, MaxInFlightPerModel: 1})
	register(t, rt, os, saPipeline(t, "hot", 0), oven.DefaultOptions())
	register(t, rt, os, saPipeline(t, "cold", 1), oven.DefaultOptions())
	hot, err := rt.acquire("hot")
	if err != nil {
		t.Fatal(err)
	}
	defer hot.release()
	cold, err := rt.acquire("cold")
	if err != nil {
		t.Fatal(err)
	}
	defer cold.release()

	if err := rt.admit(hot, PriorityNormal); err != nil {
		t.Fatal(err)
	}
	if err := rt.admit(hot, PriorityNormal); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("hot model past limit: %v", err)
	}
	if err := rt.admit(cold, PriorityNormal); err != nil {
		t.Fatalf("cold model must not be starved by hot model's limit: %v", err)
	}
	rt.exit(hot)
	rt.exit(cold)
}

// TestOverloadedShedsBestEffortKeepsReserved is the end-to-end policy
// test: with every best-effort slot removed (MaxInFlight ==
// ReservedHighPriority), normal-priority traffic on either engine is
// shed with ErrOverloaded while high-priority traffic still serves.
func TestOverloadedShedsBestEffortKeepsReserved(t *testing.T) {
	rt, os := newRT(t, Config{Executors: 2, MaxInFlight: 4, ReservedHighPriority: 4})
	register(t, rt, os, saPipeline(t, "sa", 0), oven.DefaultOptions())
	in, out := vector.New(0), vector.New(0)

	// Request-response engine, best effort: shed at admission.
	in.SetText("a nice product")
	if err := rt.PredictRequest(Request{Model: "sa", In: in, Out: out}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("best-effort Predict under zero best-effort capacity: %v", err)
	}
	// Batch engine, best effort: shed before any stage dispatch.
	if _, err := rt.SubmitRequestBatch(BatchRequest{
		Model: "sa",
		Ins:   []*vector.Vector{in},
		Outs:  []*vector.Vector{out},
	}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("best-effort Submit: %v", err)
	}
	if st := rt.SchedStats(); st.Submitted != 0 {
		t.Fatalf("shed request must not reach the scheduler: %+v", st)
	}

	// High priority serves on both engines.
	in.SetText("a nice product")
	if err := rt.PredictRequest(Request{Model: "sa", In: in, Out: out, Priority: PriorityHigh}); err != nil {
		t.Fatalf("high-priority PredictRequest: %v", err)
	}
	tk, err := rt.SubmitRequestBatch(BatchRequest{Model: "sa", Ins: []*vector.Vector{in}, Outs: []*vector.Vector{out}, Priority: PriorityHigh})
	if err != nil {
		t.Fatalf("high-priority Submit: %v", err)
	}
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}

	st := rt.AdmissionStats()
	if st.Shed != 2 || st.InFlight != 0 {
		t.Fatalf("admission stats %+v", st)
	}
	load := rt.ModelLoads()["sa"]
	if load.Shed != 2 || load.InFlight != 0 {
		t.Fatalf("model load %+v", load)
	}
	// The two served high-priority requests landed in the histogram.
	if load.Latency.Count != 2 || load.Latency.P99Nanos <= 0 {
		t.Fatalf("latency snapshot %+v", load.Latency)
	}
}

// TestPerModelHistogramOnBothEngines: served requests on either engine
// record into the model's latency histogram, and the per-model view is
// also carried on ModelInfo for GET /models/{name}.
func TestPerModelHistogramOnBothEngines(t *testing.T) {
	rt, os := newRT(t, Config{Executors: 2})
	register(t, rt, os, saPipeline(t, "sa", 0), oven.DefaultOptions())
	in, out := vector.New(0), vector.New(0)
	for i := 0; i < 10; i++ {
		in.SetText("a nice product")
		if err := rt.PredictRequest(Request{Model: "sa", In: in, Out: out}); err != nil {
			t.Fatal(err)
		}
	}
	ins := []*vector.Vector{vector.New(0), vector.New(0)}
	outs := []*vector.Vector{vector.New(0), vector.New(0)}
	for _, v := range ins {
		v.SetText("bad refund")
	}
	if err := rt.PredictRequestBatch(BatchRequest{Model: "sa", Ins: ins, Outs: outs}); err != nil {
		t.Fatal(err)
	}
	// Batch completion hooks run on executors; the histogram update may
	// trail Wait by an instant only when OnDone ordering changes — it
	// must not, because finish() fires OnDone before delivering Wait.
	info, err := rt.ModelInfo("sa")
	if err != nil {
		t.Fatal(err)
	}
	lat := info.Load.Latency
	if lat.Count != 11 { // 10 request-response + 1 batch job
		t.Fatalf("histogram count %d, want 11 (%+v)", lat.Count, lat)
	}
	if lat.P50Nanos <= 0 || lat.P95Nanos < lat.P50Nanos || lat.P99Nanos < lat.P95Nanos {
		t.Fatalf("percentiles not monotone: %+v", lat)
	}
	if lat.MeanNanos <= 0 || time.Duration(lat.P99Nanos) > time.Minute {
		t.Fatalf("implausible latency snapshot %+v", lat)
	}
	if info.Load.InFlight != 0 {
		t.Fatalf("in-flight after drain: %+v", info.Load)
	}
}
