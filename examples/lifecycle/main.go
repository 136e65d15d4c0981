// Lifecycle: the versioned model lifecycle with an atomic hot swap.
// Publishes sentiment@1 into an on-disk model repository, serves
// traffic on the bare name, publishes sentiment@2 as a canary, moves
// "stable" to it with zero failed in-flight requests, then drains and
// removes version 1 — the TF-Serving-style servable flow on top of
// PRETZEL's white-box runtime. The repository keeps the versions and
// the labels; the lifecycle manager over it moves labels and loads
// exactly the version each reference resolves to.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pretzel"
	"pretzel/internal/ml"
	"pretzel/internal/ops"
	"pretzel/internal/pipeline"
	"pretzel/internal/schema"
	"pretzel/internal/text"
)

// buildZip exports a tiny sentiment pipeline; bump differentiates the
// model weights between versions while the dictionaries stay shared
// through the Object Store.
func buildZip(bump float32) []byte {
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
		Name:        "sentiment",
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
		log.Fatal(err)
	}
	return zip
}

func main() {
	dir, err := os.MkdirTemp("", "pretzel-lifecycle-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	models, err := pretzel.OpenModelRepo(dir)
	if err != nil {
		log.Fatal(err)
	}
	rt := pretzel.NewRuntime(pretzel.NewObjectStore(), pretzel.RuntimeConfig{Executors: 4})
	mgr, err := pretzel.NewLifecycleManager(pretzel.NewLocalEngine(rt, nil), models, pretzel.LifecycleConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer mgr.Close()

	// 1. Publish version 1. With no "stable" label persisted, the bare
	// name resolves to the lowest version present.
	if _, err := mgr.Register(buildZip(0), pretzel.RegisterOptions{Name: "sentiment"}); err != nil {
		log.Fatal(err)
	}

	// 2. Serve traffic against the bare name while the rollout happens
	// underneath.
	var served, failed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := mgr.Predict(context.Background(), "sentiment", "a nice product", pretzel.PredictOptions{}); err != nil {
					failed.Add(1)
				} else {
					served.Add(1)
				}
			}
		}()
	}

	// 3. Canary version 2: published and addressable as sentiment@2 or
	// sentiment@canary, but bare-name traffic still hits version 1.
	time.Sleep(20 * time.Millisecond) // let version-1 traffic flow
	if _, err := mgr.Register(buildZip(2), pretzel.RegisterOptions{Name: "sentiment", Label: "canary"}); err != nil {
		log.Fatal(err)
	}

	// 4. Hot swap: move "stable" to version 2. In-flight requests
	// finish on version 1; new ones resolve to version 2. No request
	// ever fails.
	if err := mgr.SetLabel("sentiment", pretzel.LabelStable, 2); err != nil {
		log.Fatal(err)
	}

	// 5. Retire version 1: Unregister drains its in-flight work first,
	// releases the parameters and stages only version 1 held and
	// deletes it from the repository.
	time.Sleep(20 * time.Millisecond) // let version-2 traffic flow
	if err := mgr.Unregister("sentiment@1"); err != nil {
		log.Fatal(err)
	}
	close(stop)
	wg.Wait()

	fmt.Printf("served %d requests across the swap, %d failed\n", served.Load(), failed.Load())
	info, err := mgr.ModelInfo("sentiment")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model %q labels=%v\n", info.Name, info.Labels)
	for _, v := range info.Versions {
		total := uint64(0)
		for _, st := range v.Stages {
			total += st.Execs
		}
		fmt.Printf("  version %d: %d stages, %d stage executions recorded\n",
			v.Version, len(v.Stages), total)
	}
	if failed.Load() != 0 {
		log.Fatalf("%d requests failed across the swap", failed.Load())
	}
}
