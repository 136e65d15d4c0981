// Sentiment: the paper's multi-model SA scenario — many similar
// pipelines sharing dictionaries through the Object Store, compared
// against loading them as isolated black boxes. Demonstrates parameter
// sharing (Fig. 3 / Fig. 8) and sub-plan materialization (Fig. 10).
package main

import (
	"fmt"
	"log"
	"time"

	"pretzel"
	"pretzel/internal/metrics"
	"pretzel/internal/oven"
	"pretzel/internal/workload"
)

func main() {
	sc := workload.SmallScale()
	sc.SACount = 64
	set, err := workload.BuildSA(sc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built %d SA pipelines over %d char-dict and %d word-dict versions\n",
		len(set.Pipelines), len(set.CharDicts), len(set.WordDicts))

	// Register every pipeline with a shared Object Store: dictionaries
	// dedup, so 64 models cost little more than the 13 unique dicts.
	objStore := pretzel.NewObjectStore()
	rt := pretzel.NewRuntime(objStore, pretzel.RuntimeConfig{
		Executors:     4,
		MatCacheBytes: 64 << 20, // enable sub-plan materialization
	})
	defer rt.Close()
	before := metrics.HeapInUse()
	for _, p := range set.Pipelines {
		// Materialization flavor: featurization stages are shared through
		// the runtime's plan store and cacheable across the similar
		// pipelines.
		pln, err := pretzel.Compile(p, objStore, oven.Options{AOT: true, Materialization: true, Plans: rt.PlanStore()})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := rt.Register(pln); err != nil {
			log.Fatal(err)
		}
	}
	after := metrics.HeapInUse()
	st := objStore.Stats()
	fmt.Printf("object store: %d unique parameters, %d dedup hits; heap +%.1f MB for %d models\n",
		st.Unique, st.Hits, float64(after-before)/(1<<20), len(set.Pipelines))

	// Score one input across every model — the cross-pipeline pattern
	// where sub-plan materialization shines: the first model pays
	// featurization, the remaining 63 reuse the cached result.
	input := set.TestInputs[0]
	in, out := pretzel.NewVector(), pretzel.NewVector()
	lat := metrics.NewRecorder(len(set.Pipelines))
	for _, p := range set.Pipelines {
		in.SetText(input)
		t0 := time.Now()
		if err := rt.PredictRequest(pretzel.Request{Model: p.Name, In: in, Out: out}); err != nil {
			log.Fatal(err)
		}
		lat.Record(time.Since(t0))
	}
	cs := rt.MatCache().Stats()
	fmt.Printf("scored %q across all models: p50=%v p99=%v\n",
		input[:min(40, len(input))], lat.Percentile(50), lat.Percentile(99))
	fmt.Printf("materialization cache: %d hits / %d misses\n", cs.Hits, cs.Misses)

	// Stage sharing: similar plans bind the same physical stages.
	ps := rt.PlanStoreStats()
	fmt.Printf("plan store: %d plans share %d physical stages (%d hits)\n",
		rt.CatalogStats().Plans, ps.Unique, ps.Hits)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
