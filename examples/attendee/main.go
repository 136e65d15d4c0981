// Attendee: the paper's Attendee Count scenario — a regression ensemble
// (PCA ∥ KMeans ∥ TreeFeaturizer → Concat → forest) authored with Flour's
// structured-input API, served through the batch engine with a
// reservation for the latency-critical model (§4.2.2).
package main

import (
	"fmt"
	"log"
	"time"

	"pretzel"
	"pretzel/internal/dataset"
	"pretzel/internal/metrics"
	"pretzel/internal/ml"
	"pretzel/internal/workload"
)

func main() {
	// Train the ensemble pieces on synthetic event records.
	dim := 40
	gen := dataset.NewRecordGen(dim, 7)
	records := gen.Generate(600)
	xs := make([][]float32, len(records))
	ys := make([]float32, len(records))
	for i, r := range records {
		xs[i] = r.Features
		ys[i] = r.Label
	}
	pca, err := ml.TrainPCA(xs, ml.PCAOptions{K: 6, Iters: 20})
	if err != nil {
		log.Fatal(err)
	}
	km, err := ml.TrainKMeans(xs, ml.KMeansOptions{K: 8})
	if err != nil {
		log.Fatal(err)
	}
	featForest, err := ml.TrainForest(xs, ys, ml.ForestOptions{NumTrees: 6, Tree: ml.TreeOptions{MaxDepth: 4}})
	if err != nil {
		log.Fatal(err)
	}
	// Final regressor over the ensemble features.
	leafDim := featForest.TotalLeaves()
	featDim := 6 + 8 + leafDim
	fx := make([][]float32, len(xs))
	for i, x := range xs {
		f := make([]float32, featDim)
		pca.Project(x, f[:6])
		km.Distances(x, f[6:14])
		tf := ml.NewTreeFeaturizer(featForest)
		tf.Featurize(x, func(ix int32, v float32) { f[14+ix] = v })
		fx[i] = f
	}
	final, err := ml.TrainForest(fx, ys, ml.ForestOptions{NumTrees: 10, Tree: ml.TreeOptions{MaxDepth: 6}})
	if err != nil {
		log.Fatal(err)
	}

	// Author with Flour: three concurrent branches off the parsed input.
	objStore := pretzel.NewObjectStore()
	fc := pretzel.NewFlourContext(objStore)
	base := fc.Floats(',', dim)
	prg := base.PCA(pca).
		Concat(base.KMeans(km), base.TreeFeaturize(featForest)).
		ForestRegressor(final)
	pln, err := prg.Plan("attendee-count", pretzel.DefaultCompileOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled attendee-count: %d stages (branches run concurrently on the batch engine)\n", len(pln.Stages))

	rt := pretzel.NewRuntime(objStore, pretzel.RuntimeConfig{Executors: 4})
	defer rt.Close()
	if _, err := rt.Register(pln); err != nil {
		log.Fatal(err)
	}
	// Reserve one core: the plan keeps its latency under bursty load.
	if err := rt.Reserve("attendee-count", 1); err != nil {
		log.Fatal(err)
	}

	// Serve a batch through the scheduler and report latency.
	test := gen.Generate(200)
	lat := metrics.NewRecorder(len(test))
	var mae float64
	for _, r := range test {
		in, out := pretzel.NewVector(), pretzel.NewVector()
		in.SetText(workload.FormatRecord(r.Features))
		t0 := time.Now()
		err := rt.PredictRequestBatch(pretzel.BatchRequest{
			Model: "attendee-count",
			Ins:   []*pretzel.Vector{in},
			Outs:  []*pretzel.Vector{out},
		})
		if err != nil {
			log.Fatal(err)
		}
		lat.Record(time.Since(t0))
		d := float64(out.Dense[0] - r.Label)
		if d < 0 {
			d = -d
		}
		mae += d
	}
	fmt.Printf("batch engine: %s\n", lat.Summary())
	fmt.Printf("mean absolute error over %d events: %.2f attendees\n", len(test), mae/float64(len(test)))
}
