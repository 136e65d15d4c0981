package serving

import (
	"fmt"
	"sync"
	"testing"

	"pretzel/internal/ml"
	"pretzel/internal/ops"
	"pretzel/internal/oven"
	"pretzel/internal/pipeline"
	"pretzel/internal/runtime"
	"pretzel/internal/schema"
	"pretzel/internal/store"
	"pretzel/internal/text"
)

// variantZip exports an SA pipeline whose dictionaries are always
// identical but whose final layer is shifted by bump — bump 0 uploads
// are full structural twins, distinct bumps are final-layer variants.
func variantZip(t testing.TB, name string, bump float32) []byte {
	t.Helper()
	cb, wb := text.NewDictBuilder(), text.NewDictBuilder()
	for _, doc := range []string{"nice product great wonderful", "bad refund awful broken"} {
		toks := text.Tokenize(doc, nil)
		for _, tok := range toks {
			text.ObserveCharNgrams(cb, []byte(tok), 2, 3)
		}
		text.ObserveWordNgrams(wb, toks, 2, nil)
	}
	cd, wd := cb.Build(0), wb.Build(0)
	weights := make([]float32, cd.Size()+wd.Size())
	if ix := wd.Lookup("nice"); ix >= 0 {
		weights[cd.Size()+int(ix)] = 3 + bump
	}
	p := &pipeline.Pipeline{
		Name:        name,
		InputSchema: schema.Text("Text"),
		Stats:       pipeline.Stats{MaxVectorSize: cd.Size() + wd.Size(), AvgTokens: 6, SparseOutput: true},
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

// TestConcurrentRegisterUnregisterStoreBalance hammers Register and
// Unregister of identical and near-identical uploads from many
// goroutines, through BOTH compile modes (pushdown and materialization)
// against one runtime. Every goroutine fully unregisters what it
// registered, so afterwards the object store and the plan store must
// hold exactly nothing: any imbalance is a leaked or double-released
// refcount in the sharing paths.
func TestConcurrentRegisterUnregisterStoreBalance(t *testing.T) {
	rt := runtime.New(store.New(), runtime.Config{Executors: 2})
	t.Cleanup(rt.Close)
	push := NewLocal(rt, nil)
	mat := NewLocal(rt, &oven.Options{Materialization: true})

	const goroutines = 8
	iters := 30
	if testing.Short() {
		iters = 8
	}
	zips := make([][]byte, goroutines)
	for g := range zips {
		// Half the fleet uploads the identical model, half unique
		// final-layer variants.
		bump := float32(0)
		if g%2 == 1 {
			bump = float32(g) * 0.25
		}
		zips[g] = variantZip(t, fmt.Sprintf("stress-%d", g), bump)
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			eng := push
			if g%4 >= 2 {
				eng = mat
			}
			name := fmt.Sprintf("stress-%d", g)
			for i := 0; i < iters; i++ {
				if _, err := eng.Register(zips[g], RegisterOptions{Name: name}); err != nil {
					errs <- fmt.Errorf("register %s: %w", name, err)
					return
				}
				if err := eng.Unregister(name); err != nil {
					errs <- fmt.Errorf("unregister %s: %w", name, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if c, b := rt.ObjectStore().Stats().Unique, rt.ObjectStore().MemBytes(); c != 0 || b != 0 {
		t.Fatalf("object store not drained: count=%d bytes=%d", c, b)
	}
	ps := rt.PlanStore()
	if c, b := ps.Stats().Unique, ps.MemBytes(); c != 0 || b != 0 {
		t.Fatalf("plan store not drained: count=%d bytes=%d", c, b)
	}
	if mem := rt.MemBytes(); mem != 0 {
		t.Fatalf("runtime still charges %d bytes with no models", mem)
	}
}
