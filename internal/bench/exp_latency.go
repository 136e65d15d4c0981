package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"pretzel/internal/blackbox"
	"pretzel/internal/frontend"
	"pretzel/internal/metrics"
	"pretzel/internal/oven"
	"pretzel/internal/runtime"
	"pretzel/internal/serving"
	"pretzel/internal/store"
	"pretzel/internal/vector"
)

// latencyPair measures cold + hot latency of every model on one system.
type latencyPair struct {
	cold *metrics.Recorder
	hot  *metrics.Recorder
}

// measure runs the fig9 protocol: first prediction is cold, 10 warmups
// discarded, HotIters averaged into one hot sample per model.
// rtPredict adapts the runtime's request-response entry point to the
// predict signature measure drives.
func rtPredict(rt *runtime.Runtime) func(name string, in, out *vector.Vector) error {
	return func(name string, in, out *vector.Vector) error {
		return rt.PredictRequest(runtime.Request{Model: name, In: in, Out: out})
	}
}

func measure(predict func(name string, in, out *vector.Vector) error,
	names []string, input string, hotIters int) (latencyPair, error) {
	lp := latencyPair{
		cold: metrics.NewRecorder(len(names)),
		hot:  metrics.NewRecorder(len(names)),
	}
	in, out := vector.New(0), vector.New(0)
	for _, n := range names {
		in.SetText(input)
		t0 := time.Now()
		if err := predict(n, in, out); err != nil {
			return lp, err
		}
		lp.cold.Record(time.Since(t0))
		for k := 0; k < 10; k++ {
			if err := predict(n, in, out); err != nil {
				return lp, err
			}
		}
		var sum time.Duration
		for k := 0; k < hotIters; k++ {
			t1 := time.Now()
			if err := predict(n, in, out); err != nil {
				return lp, err
			}
			sum += time.Since(t1)
		}
		lp.hot.Record(sum / time.Duration(hotIters))
	}
	return lp, nil
}

// runFig9 compares PRETZEL's request-response engine against the
// black-box baseline on cold and hot single-prediction latency for both
// pipeline categories.
func runFig9(w io.Writer, env *Env) error {
	sa, err := env.SA()
	if err != nil {
		return err
	}
	ac, err := env.AC()
	if err != nil {
		return err
	}
	for _, set := range []struct {
		label string
		files []string
		names []string
		input string
	}{
		{"SA", sa.Files, planNames(sa.Files), sa.Set.TestInputs[0]},
		{"AC", ac.Files, planNames(ac.Files), ac.Set.TestInputs[0]},
	} {
		// PRETZEL: compile+register all plans (off-line phase), then
		// measure. Cold here includes only what remains at prediction
		// time: pool warmup and first-touch — kernels were built at
		// compile time, so there is no init/JIT.
		objStore := store.New()
		rt := runtime.New(objStore, runtime.Config{Executors: 2})
		if _, err := loadPretzel(rt, objStore, set.files, oven.DefaultOptions()); err != nil {
			rt.Close()
			return err
		}
		pz, err := measure(rtPredict(rt), set.names, set.input, env.HotIters)
		if err != nil {
			rt.Close()
			return err
		}
		rt.Close()

		// Baseline: lazy materialization at first prediction.
		eng := blackbox.NewEngine()
		for i, f := range set.files {
			if err := eng.LoadFile(set.names[i], f); err != nil {
				return err
			}
		}
		bb, err := measure(eng.Predict, set.names, set.input, env.HotIters)
		if err != nil {
			return err
		}

		fmt.Fprintf(w, "[%s]\n", set.label)
		summarize(w, "  pretzel hot", pz.hot)
		summarize(w, "  pretzel cold", pz.cold)
		summarize(w, "  ml.net hot", bb.hot)
		summarize(w, "  ml.net cold", bb.cold)
		printCDF(w, "  pretzel hot CDF", pz.hot, 8)
		printCDF(w, "  ml.net  hot CDF", bb.hot, 8)
		hr := float64(bb.hot.Percentile(99)) / float64(pz.hot.Percentile(99))
		cr := float64(bb.cold.Percentile(99)) / float64(pz.cold.Percentile(99))
		fmt.Fprintf(w, "  p99 speedup: hot %.1fx (paper ~3x), cold %.1fx (paper ~6-10x)\n", hr, cr)
	}
	return nil
}

// planNames derives registered plan names from model file paths.
func planNames(files []string) []string {
	out := make([]string, len(files))
	for i, f := range files {
		base := f
		for k := len(f) - 1; k >= 0; k-- {
			if f[k] == '/' {
				base = f[k+1:]
				break
			}
		}
		out[i] = base[:len(base)-len(".zip")]
	}
	return out
}

// runFig10 measures the sub-plan materialization speedup: the same
// inputs scored across all SA pipelines, with and without the
// materialization cache (§4.3, Fig. 10).
func runFig10(w io.Writer, env *Env) error {
	sa, err := env.SA()
	if err != nil {
		return err
	}
	files := sa.Files
	names := planNames(files)
	nInputs := 10
	if env.Quick {
		nInputs = 4
	}
	inputs := sa.Set.TestInputs[:nInputs]

	// perModelMean measures the mean hot latency per model while scoring
	// every input across every model (the cross-pipeline access pattern
	// sub-plan materialization exploits).
	perModelMean := func(rt *runtime.Runtime) ([]float64, error) {
		if err := warmRuntime(rt, names, inputs[0], 1); err != nil {
			return nil, err
		}
		sums := make([]time.Duration, len(names))
		in, out := vector.New(0), vector.New(0)
		for _, input := range inputs {
			for mi, n := range names {
				in.SetText(input)
				t0 := time.Now()
				if err := rt.PredictRequest(runtime.Request{Model: n, In: in, Out: out}); err != nil {
					return nil, err
				}
				sums[mi] += time.Since(t0)
			}
		}
		out2 := make([]float64, len(names))
		for i, s := range sums {
			out2[i] = float64(s) / float64(len(inputs)) / 1e3 // µs
		}
		return out2, nil
	}

	// Base: default pushdown plans, no cache.
	objStore := store.New()
	rtBase := runtime.New(objStore, runtime.Config{Executors: 1})
	if _, err := loadPretzel(rtBase, objStore, files, oven.DefaultOptions()); err != nil {
		rtBase.Close()
		return err
	}
	baseLat, err := perModelMean(rtBase)
	rtBase.Close()
	if err != nil {
		return err
	}

	// Materialization flavor with shared cache.
	objStore2 := store.New()
	rtMat := runtime.New(objStore2, runtime.Config{Executors: 1, MatCacheBytes: 256 << 20})
	if _, err := loadPretzel(rtMat, objStore2, files, oven.Options{Materialization: true}); err != nil {
		rtMat.Close()
		return err
	}
	matLat, err := perModelMean(rtMat)
	cacheStats := rtMat.MatCache().Stats()
	rtMat.Close()
	if err != nil {
		return err
	}

	speedups := make([]float64, len(names))
	ge2 := 0
	for i := range names {
		speedups[i] = baseLat[i] / matLat[i]
		if speedups[i] >= 2 {
			ge2++
		}
	}
	s := sortedCopy(speedups)
	fmt.Fprintf(w, "per-pipeline speedup (pretzel+materialization vs pretzel): p10=%.2fx p50=%.2fx p90=%.2fx max=%.2fx\n",
		s[len(s)/10], s[len(s)/2], s[len(s)*9/10], s[len(s)-1])
	fmt.Fprintf(w, "pipelines with >=2x speedup: %d/%d (paper: ~80%%)\n", ge2, len(names))
	fmt.Fprintf(w, "materialization cache: hits=%d misses=%d entries=%d bytes=%s\n",
		cacheStats.Hits, cacheStats.Misses, cacheStats.Entries, mb(uint64(cacheStats.Bytes)))
	return nil
}

// runFig11 measures end-to-end latency through HTTP front ends: PRETZEL
// with its FrontEnd vs the containerized baseline behind an equivalent
// HTTP shim, plus the prediction-only latency for comparison (Fig. 11).
func runFig11(w io.Writer, env *Env) error {
	sa, err := env.SA()
	if err != nil {
		return err
	}
	ac, err := env.AC()
	if err != nil {
		return err
	}
	for _, set := range []struct {
		label string
		files []string
		input string
	}{
		{"SA", sa.Files, sa.Set.TestInputs[0]},
		{"AC", ac.Files, ac.Set.TestInputs[0]},
	} {
		names := planNames(set.files)
		// Cap the model count for the end-to-end run: HTTP per-model
		// warmup dominates otherwise.
		n := len(names)
		if n > 50 {
			n = 50
		}
		names = names[:n]
		files := set.files[:n]

		// PRETZEL + FrontEnd.
		objStore := store.New()
		rt := runtime.New(objStore, runtime.Config{Executors: 2})
		if _, err := loadPretzel(rt, objStore, files, oven.DefaultOptions()); err != nil {
			rt.Close()
			return err
		}
		fe := frontend.New(serving.NewLocal(rt, nil), frontend.Config{})
		srv := httptest.NewServer(fe)
		pzE2E, pzPred, err := clientLatency(srv.URL, names, set.input, rt, env.HotIters)
		srv.Close()
		rt.Close()
		if err != nil {
			return err
		}

		// Containerized baseline behind HTTP.
		orch := blackbox.NewOrchestrator()
		for i, f := range files {
			if err := orch.DeployFile(names[i], f); err != nil {
				orch.StopAll()
				return err
			}
		}
		shim := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			var req frontend.Request
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(rw, err.Error(), http.StatusBadRequest)
				return
			}
			pred, err := orch.Predict(req.Model, req.Input)
			if err != nil {
				http.Error(rw, err.Error(), http.StatusInternalServerError)
				return
			}
			_ = json.NewEncoder(rw).Encode(frontend.Response{Prediction: pred})
		}))
		bbE2E, _, err := clientLatency(shim.URL, names, set.input, nil, env.HotIters)
		shim.Close()
		orch.StopAll()
		if err != nil {
			return err
		}

		fmt.Fprintf(w, "[%s]\n", set.label)
		summarize(w, "  pretzel prediction-only", pzPred)
		summarize(w, "  pretzel client-observed", pzE2E)
		summarize(w, "  clipper client-observed", bbE2E)
	}
	return nil
}

// clientLatency drives HTTP requests round-robin over the models and
// records client-observed latency; when rt is non-nil it also records
// the in-process prediction-only latency for the same requests.
func clientLatency(url string, names []string, input string, rt *runtime.Runtime, iters int) (*metrics.Recorder, *metrics.Recorder, error) {
	e2e := metrics.NewRecorder(len(names) * 2)
	pred := metrics.NewRecorder(len(names) * 2)
	client := &http.Client{}
	body, _ := json.Marshal(frontend.Request{Model: names[0], Input: input})
	_ = body
	in, out := vector.New(0), vector.New(0)
	// Warm every model once through HTTP.
	for _, n := range names {
		if err := post(client, url, n, input); err != nil {
			return nil, nil, err
		}
	}
	reps := iters / 10
	if reps < 2 {
		reps = 2
	}
	for r := 0; r < reps; r++ {
		for _, n := range names {
			t0 := time.Now()
			if err := post(client, url, n, input); err != nil {
				return nil, nil, err
			}
			e2e.Record(time.Since(t0))
			if rt != nil {
				in.SetText(input)
				t1 := time.Now()
				if err := rt.PredictRequest(runtime.Request{Model: n, In: in, Out: out}); err != nil {
					return nil, nil, err
				}
				pred.Record(time.Since(t1))
			}
		}
	}
	return e2e, pred, nil
}

// post issues one JSON prediction request and drains the response.
func post(client *http.Client, url, model, input string) error {
	body, err := json.Marshal(frontend.Request{Model: model, Input: input})
	if err != nil {
		return err
	}
	resp, err := client.Post(url+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var out frontend.Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("bench: http %d: %s", resp.StatusCode, out.Error)
	}
	return nil
}
