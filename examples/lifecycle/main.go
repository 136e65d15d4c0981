// Lifecycle: the versioned model lifecycle with an atomic hot swap.
// Registers sentiment@1 (label "stable"), serves traffic, installs
// sentiment@2 as a canary, moves "stable" to it with zero failed
// in-flight requests, then drains and removes version 1 — the
// TF-Serving-style servable flow on top of PRETZEL's white-box runtime.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"pretzel"
	"pretzel/internal/ml"
	"pretzel/internal/ops"
	"pretzel/internal/oven"
	"pretzel/internal/pipeline"
	"pretzel/internal/schema"
	"pretzel/internal/text"
)

// buildPlan compiles a tiny sentiment pipeline; bump differentiates the
// model weights between versions while the dictionaries stay shared
// through the Object Store.
func buildPlan(objStore *pretzel.ObjectStore, bump float32) *pretzel.Plan {
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
	pl, err := oven.Compile(p, objStore, oven.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	return pl
}

func main() {
	objStore := pretzel.NewObjectStore()
	rt := pretzel.NewRuntime(objStore, pretzel.RuntimeConfig{Executors: 4})
	defer rt.Close()

	// 1. Install version 1; the first version takes the "stable" label.
	if _, err := rt.RegisterVersion(buildPlan(objStore, 0), "sentiment", 1); err != nil {
		log.Fatal(err)
	}

	// 2. Serve traffic against the bare name (resolves via "stable")
	// while the rollout happens underneath.
	var served, failed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in, out := pretzel.NewVector(), pretzel.NewVector()
			for {
				select {
				case <-stop:
					return
				default:
				}
				in.SetText("a nice product")
				err := rt.PredictRequest(pretzel.Request{Ctx: context.Background(), Model: "sentiment", In: in, Out: out})
				if err != nil {
					failed.Add(1)
				} else {
					served.Add(1)
				}
			}
		}()
	}

	// 3. Canary version 2: installed and addressable as sentiment@2 or
	// sentiment@canary, but bare-name traffic still hits version 1.
	time.Sleep(20 * time.Millisecond) // let version-1 traffic flow
	if _, err := rt.RegisterVersion(buildPlan(objStore, 2), "sentiment", 2); err != nil {
		log.Fatal(err)
	}
	if err := rt.SetLabel("sentiment", "canary", 2); err != nil {
		log.Fatal(err)
	}

	// 4. Hot swap: move "stable" to version 2. In-flight requests
	// finish on version 1; new ones resolve to version 2. No request
	// ever fails.
	if err := rt.SetLabel("sentiment", pretzel.LabelStable, 2); err != nil {
		log.Fatal(err)
	}

	// 5. Retire version 1: Unregister drains its in-flight work first,
	// then releases the parameters and stages only version 1 held.
	time.Sleep(20 * time.Millisecond) // let version-2 traffic flow
	if err := rt.Unregister("sentiment@1"); err != nil {
		log.Fatal(err)
	}
	close(stop)
	wg.Wait()

	fmt.Printf("served %d requests across the swap, %d failed\n", served.Load(), failed.Load())
	info, err := rt.ModelInfo("sentiment")
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
}
