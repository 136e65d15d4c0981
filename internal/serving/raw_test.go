package serving

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"pretzel/internal/runtime"
	"pretzel/internal/store"
)

// TestConcurrentColdLoadsShareOperators registers models that share
// parameters from concurrent goroutines: first all missing the raw
// index at once, then all hitting it, with predictions running beside
// them. Run under -race, this shows a shared operator is never written
// to. Every model predicts as a plain load would, and the stores drain
// to zero after every model is unregistered.
func TestConcurrentColdLoadsShareOperators(t *testing.T) {
	rt := runtime.New(store.New(), runtime.Config{Executors: 2})
	t.Cleanup(rt.Close)
	l := NewLocal(rt, nil)
	const per = 4
	want := map[string]float32{}
	register := func(round int) {
		var wg sync.WaitGroup
		errs := make(chan error, per)
		for g := 0; g < per; g++ {
			name := fmt.Sprintf("m%d-%d", round, g)
			zip := variantZip(t, name, float32(g%2))
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := l.Register(zip, RegisterOptions{Name: name}); err != nil {
					errs <- err
					return
				}
				for i := 0; i < 20; i++ {
					if _, err := l.Predict(context.Background(), name, "a nice product", PredictOptions{}); err != nil {
						errs <- err
						return
					}
				}
			}()
			want[name] = plainScore(t, zip)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}

	register(0)
	st := rt.ObjectStore().Stats()
	// Two final layers and one pair of dictionaries: four parameters.
	if st.Unique != 4 || st.RawKeys != 4 {
		t.Fatalf("after the first round: %+v, want 4 unique parameters and raw keys", st)
	}
	register(1)
	after := rt.ObjectStore().Stats()
	if after.RawHits-st.RawHits != 3*per || after.RawMisses != st.RawMisses || after.Digests != st.Digests {
		t.Fatalf("the second round must take every operator from the index: before %+v after %+v", st, after)
	}
	for name, score := range want {
		out, err := l.Predict(context.Background(), name, "a nice product", PredictOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != score {
			t.Fatalf("%s: score %v, want %v", name, out[0], score)
		}
		if err := l.Unregister(name); err != nil {
			t.Fatal(err)
		}
	}
	if st := rt.ObjectStore().Stats(); st.Unique != 0 || st.Refs != 0 || st.RawKeys != 0 {
		t.Fatalf("object store not drained: %+v", st)
	}
	if ps := rt.PlanStore(); ps.Count() != 0 || ps.MemBytes() != 0 {
		t.Fatalf("plan store not drained: count=%d bytes=%d", ps.Count(), ps.MemBytes())
	}
}

// plainScore is a zip's score on the test input from a runtime of its
// own, with nothing shared.
func plainScore(t *testing.T, zip []byte) float32 {
	t.Helper()
	rt := runtime.New(store.New(), runtime.Config{Executors: 1})
	defer rt.Close()
	l := NewLocal(rt, nil)
	res, err := l.Register(zip, RegisterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := l.Predict(context.Background(), res.Name, "a nice product", PredictOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return out[0]
}
