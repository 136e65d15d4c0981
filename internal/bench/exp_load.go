package bench

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"encoding/json"

	"pretzel/internal/blackbox"
	"pretzel/internal/frontend"
	"pretzel/internal/metrics"
	"pretzel/internal/oven"
	"pretzel/internal/runtime"
	"pretzel/internal/serving"
	"pretzel/internal/store"
	"pretzel/internal/vector"
	"pretzel/internal/workload"
)

// runFig12 measures batch-engine throughput as cores scale, against the
// black-box baseline and the ideal linear-scaling line (Fig. 12).
func runFig12(w io.Writer, env *Env) error {
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
		// A model subset keeps the per-worker baseline materialization
		// tractable; both systems serve the same subset.
		names := planNames(set.files)
		n := len(names)
		if n > 16 {
			n = 16
		}
		names, files := names[:n], set.files[:n]
		total := 20000
		if env.Quick {
			total = 1500
		}

		fmt.Fprintf(w, "[%s] throughput (records/s), batch engine, %d models, %d records per point:\n",
			set.label, n, total)
		var oneCore float64
		for _, cores := range env.Cores {
			qps, err := pretzelThroughput(files, names, set.input, cores, total)
			if err != nil {
				return err
			}
			if cores == env.Cores[0] {
				oneCore = qps / float64(cores)
			}
			bb, err := blackboxThroughput(files, names, set.input, cores, total)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  cores=%-3d pretzel=%-10.0f ml.net=%-10.0f ideal=%-10.0f speedup=%.1fx\n",
				cores, qps, bb, oneCore*float64(cores), qps/bb)
		}
	}
	return nil
}

// pretzelThroughput measures batch-engine records/s on a fresh runtime,
// submitting one 1000-record batch job per model round-robin (the §5.3
// protocol: "we can execute prediction queries in batches: in this
// experiment we fixed the batch size at 1000 queries").
func pretzelThroughput(files, names []string, input string, cores, total int) (float64, error) {
	objStore := store.New()
	rt := runtime.New(objStore, runtime.Config{Executors: cores})
	defer rt.Close()
	if _, err := loadPretzel(rt, objStore, files, oven.DefaultOptions()); err != nil {
		return 0, err
	}
	if err := warmRuntime(rt, names, input, 2); err != nil {
		return 0, err
	}
	batch := 1000
	if total < 4000 {
		batch = 100
	}
	ins := make([]*vector.Vector, batch)
	for i := range ins {
		ins[i] = vector.New(0)
		ins[i].SetText(input)
	}
	// Output buffers rotate across the in-flight window so concurrent
	// jobs never share them. The window is 2*cores queued in the
	// inflight channel, plus one popped by the drainer (its Wait may
	// not have returned), plus the one just submitted before the
	// submitter blocks on the channel send.
	nBuf := 2*cores + 2
	outBufs := make([][]*vector.Vector, nBuf)
	for b := range outBufs {
		outBufs[b] = make([]*vector.Vector, batch)
		for i := range outBufs[b] {
			outBufs[b][i] = vector.New(0)
		}
	}
	// Keep ~2 batch jobs in flight per executor.
	inflight := make(chan interface{ Wait() error }, 2*cores)
	errCh := make(chan error, 1)
	var drain sync.WaitGroup
	drain.Add(1)
	go func() {
		defer drain.Done()
		for j := range inflight {
			if err := j.Wait(); err != nil {
				select {
				case errCh <- err:
				default:
				}
			}
		}
	}()
	t0 := time.Now()
	done := 0
	mi := 0
	for done < total {
		k := batch
		if total-done < k {
			k = total - done
		}
		j, err := rt.SubmitRequestBatch(runtime.BatchRequest{Model: names[mi%len(names)], Ins: ins[:k], Outs: outBufs[mi%nBuf][:k]})
		if err != nil {
			close(inflight)
			drain.Wait()
			return 0, err
		}
		inflight <- j
		mi++
		done += k
	}
	close(inflight)
	drain.Wait()
	select {
	case err := <-errCh:
		return 0, err
	default:
	}
	return float64(total) / time.Since(t0).Seconds(), nil
}

// blackboxThroughput measures the baseline with one OS-thread-style
// worker per core, each holding its own model copies (§5.3).
func blackboxThroughput(files, names []string, input string, cores, total int) (float64, error) {
	eng := blackbox.NewEngine()
	for i, f := range files {
		if err := eng.LoadFile(names[i], f); err != nil {
			return 0, err
		}
	}
	// Warm every worker's copies outside the timed window.
	var warmWG sync.WaitGroup
	warmErr := make(chan error, cores)
	for wk := 0; wk < cores; wk++ {
		warmWG.Add(1)
		go func(worker int) {
			defer warmWG.Done()
			in, out := vector.New(0), vector.New(0)
			for _, n := range names {
				in.SetText(input)
				if err := eng.PredictOn(worker, n, in, out); err != nil {
					warmErr <- err
					return
				}
			}
		}(wk)
	}
	warmWG.Wait()
	select {
	case err := <-warmErr:
		return 0, err
	default:
	}
	per := total / cores
	var wg sync.WaitGroup
	errCh := make(chan error, cores)
	t0 := time.Now()
	for wk := 0; wk < cores; wk++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			in, out := vector.New(0), vector.New(0)
			for i := 0; i < per; i++ {
				in.SetText(input)
				if err := eng.PredictOn(worker, names[i%len(names)], in, out); err != nil {
					errCh <- err
					return
				}
			}
		}(wk)
	}
	wg.Wait()
	el := time.Since(t0).Seconds()
	select {
	case err := <-errCh:
		return 0, err
	default:
	}
	return float64(per*cores) / el, nil
}

// loadResult is one offered-load point of the heavy-load experiments.
type loadResult struct {
	offered    int
	throughput float64
	meanLat    time.Duration
	p99Lat     time.Duration
}

// runFig13 runs the heavy-load micro-benchmark: all 500 models in one
// runtime, Zipf(α=2) skewed requests, 50% of models latency-sensitive
// (batch 1) and the rest batched (Fig. 13).
func runFig13(w io.Writer, env *Env) error {
	results, _, err := heavyLoadMicro(env, false)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "offered(req/s)  throughput(q/s)  sensitive mean lat   p99 lat")
	for _, r := range results {
		fmt.Fprintf(w, "%-15d %-16.0f %-20v %v\n", r.offered, r.throughput,
			r.meanLat.Round(time.Microsecond), r.p99Lat.Round(time.Microsecond))
	}
	return nil
}

// runReservation saturates the shared executors with background batch
// work and compares a latency-critical model's latency with and without
// one reserved core (§5.4.1: "this does not encounter any degradation in
// latency ... as the load increases").
func runReservation(w io.Writer, env *Env) error {
	plain, err := reservationProbe(env, false)
	if err != nil {
		return err
	}
	reserved, err := reservationProbe(env, true)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "vip model p99 latency under saturation, shared executors: %v\n", plain.Round(time.Microsecond))
	fmt.Fprintf(w, "vip model p99 latency under saturation, 1 reserved core:  %v\n", reserved.Round(time.Microsecond))
	if reserved > 0 {
		fmt.Fprintf(w, "improvement: %.1fx (paper: no degradation, up to 3 orders of magnitude)\n",
			float64(plain)/float64(reserved))
	}
	return nil
}

// reservationProbe floods the shared executors with batch jobs over the
// whole model set while probing one vip model's single-request latency.
func reservationProbe(env *Env, reserve bool) (time.Duration, error) {
	sa, err := env.SA()
	if err != nil {
		return 0, err
	}
	files := sa.Files
	names := planNames(files)
	input := sa.Set.TestInputs[0]
	cores := env.Cores[len(env.Cores)-1]
	objStore := store.New()
	rt := runtime.New(objStore, runtime.Config{Executors: cores})
	defer rt.Close()
	if _, err := loadPretzel(rt, objStore, files, oven.DefaultOptions()); err != nil {
		return 0, err
	}
	vip := names[0]
	if reserve {
		if err := rt.Reserve(vip, 1); err != nil {
			return 0, err
		}
	}
	if err := warmRuntime(rt, names, input, 1); err != nil {
		return 0, err
	}
	stop := make(chan struct{})
	var flood sync.WaitGroup
	batch := 200
	if env.Quick {
		batch = 50
	}
	for g := 0; g < 2*cores; g++ {
		flood.Add(1)
		go func(g int) {
			defer flood.Done()
			in := vector.New(0)
			in.SetText(input)
			ins := make([]*vector.Vector, batch)
			outs := make([]*vector.Vector, batch)
			for k := range ins {
				ins[k] = in
				outs[k] = vector.New(0)
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Flood only non-vip models.
				j, err := rt.SubmitRequestBatch(runtime.BatchRequest{Model: names[1+(g+i)%(len(names)-1)], Ins: ins, Outs: outs})
				if err != nil {
					return
				}
				if j.Wait() != nil {
					return
				}
			}
		}(g)
	}
	// Probe the vip model.
	lat := metrics.NewRecorder(256)
	in, out := vector.New(0), vector.New(0)
	in.SetText(input)
	deadline := time.Now().Add(env.LoadWindow)
	for time.Now().Before(deadline) {
		t0 := time.Now()
		j, err := rt.SubmitRequestBatch(runtime.BatchRequest{Model: vip, Ins: []*vector.Vector{in}, Outs: []*vector.Vector{out}})
		if err != nil {
			close(stop)
			flood.Wait()
			return 0, err
		}
		if err := j.Wait(); err != nil {
			close(stop)
			flood.Wait()
			return 0, err
		}
		lat.Record(time.Since(t0))
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	flood.Wait()
	return lat.Percentile(99), nil
}

// heavyLoadMicro drives the fig13 protocol and also returns the mean
// latency of the designated "reserved" model at the highest load point.
func heavyLoadMicro(env *Env, reserve bool) ([]loadResult, time.Duration, error) {
	sa, err := env.SA()
	if err != nil {
		return nil, 0, err
	}
	ac, err := env.AC()
	if err != nil {
		return nil, 0, err
	}
	files := append(append([]string{}, sa.Files...), ac.Files...)
	names := planNames(files)
	inputs := make([]string, len(names))
	for i := range names {
		if i < len(sa.Files) {
			inputs[i] = sa.Set.TestInputs[i%len(sa.Set.TestInputs)]
		} else {
			inputs[i] = ac.Set.TestInputs[i%len(ac.Set.TestInputs)]
		}
	}
	cores := env.Cores[len(env.Cores)-1]
	objStore := store.New()
	rt := runtime.New(objStore, runtime.Config{Executors: cores})
	defer rt.Close()
	if _, err := loadPretzel(rt, objStore, files, oven.DefaultOptions()); err != nil {
		return nil, 0, err
	}
	vipModel := names[0]
	if reserve {
		if err := rt.Reserve(vipModel, 1); err != nil {
			return nil, 0, err
		}
	}
	if err := warmHeavy(rt, names, inputs); err != nil {
		return nil, 0, err
	}
	batchSize := 100
	if env.Quick {
		batchSize = 10
	}

	var results []loadResult
	var vipMean time.Duration
	for _, offered := range env.LoadPoints {
		zipf := workload.NewZipfPicker(len(names), 2, 7)
		interval := time.Second / time.Duration(offered)
		deadline := time.Now().Add(env.LoadWindow)
		var completed atomic.Int64
		sensLat := metrics.NewRecorder(1024)
		vipLat := metrics.NewRecorder(128)
		var wg sync.WaitGroup
		var errOnce sync.Once
		var firstErr error
		t0 := time.Now()
		next := t0
		for time.Now().Before(deadline) {
			mi := zipf.Pick()
			sensitive := mi%2 == 0
			wg.Add(1)
			go func(mi int, sensitive bool) {
				defer wg.Done()
				n := 1
				if !sensitive {
					n = batchSize
				}
				in := vector.New(0)
				in.SetText(inputs[mi])
				ins := make([]*vector.Vector, n)
				outs := make([]*vector.Vector, n)
				for k := 0; k < n; k++ {
					ins[k] = in
					outs[k] = vector.New(0)
				}
				start := time.Now()
				j, err := rt.SubmitRequestBatch(runtime.BatchRequest{Model: names[mi], Ins: ins, Outs: outs})
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				if err := j.Wait(); err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				completed.Add(int64(n))
				if sensitive {
					d := time.Since(start)
					sensLat.Record(d)
					if names[mi] == vipModel {
						vipLat.Record(d)
					}
				}
			}(mi, sensitive)
			next = next.Add(interval)
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
		}
		wg.Wait()
		if firstErr != nil {
			return nil, 0, firstErr
		}
		el := time.Since(t0).Seconds()
		results = append(results, loadResult{
			offered:    offered,
			throughput: float64(completed.Load()) / el,
			meanLat:    sensLat.Mean(),
			p99Lat:     sensLat.Percentile(99),
		})
		if offered == env.LoadPoints[len(env.LoadPoints)-1] && vipLat.Count() > 0 {
			vipMean = vipLat.Mean()
		}
	}
	// Fall back when Zipf never picked the vip model at the last point.
	if vipMean == 0 && len(results) > 0 {
		vipMean = results[len(results)-1].meanLat
	}
	return results, vipMean, nil
}

// warmHeavy issues one batch prediction per model.
func warmHeavy(rt *runtime.Runtime, names, inputs []string) error {
	for i, n := range names {
		in, out := vector.New(0), vector.New(0)
		in.SetText(inputs[i])
		j, err := rt.SubmitRequestBatch(runtime.BatchRequest{Model: n, Ins: []*vector.Vector{in}, Outs: []*vector.Vector{out}})
		if err != nil {
			return err
		}
		if err := j.Wait(); err != nil {
			return err
		}
	}
	return nil
}

// runFig14 runs the end-to-end heavy-load comparison over HTTP: PRETZEL
// FrontEnd vs the containerized baseline, 250 AC models, batch 1
// (Fig. 14).
func runFig14(w io.Writer, env *Env) error {
	ac, err := env.AC()
	if err != nil {
		return err
	}
	files := ac.Files
	names := planNames(files)
	// Containers are expensive; cap for tractability (same cap both
	// systems).
	if len(names) > 64 {
		names, files = names[:64], files[:64]
	}
	inputs := ac.Set.TestInputs

	// PRETZEL FrontEnd.
	objStore := store.New()
	cores := env.Cores[len(env.Cores)-1]
	rt := runtime.New(objStore, runtime.Config{Executors: cores})
	if _, err := loadPretzel(rt, objStore, files, oven.DefaultOptions()); err != nil {
		rt.Close()
		return err
	}
	fe := frontend.New(serving.NewLocal(rt, nil), frontend.Config{})
	srv := httptest.NewServer(fe)
	pz, err := httpLoadSweep(srv.URL, names, inputs, env)
	srv.Close()
	rt.Close()
	if err != nil {
		return err
	}

	// Containerized baseline.
	orch := blackbox.NewOrchestrator()
	for i, f := range files {
		if err := orch.DeployFile(names[i], f); err != nil {
			orch.StopAll()
			return err
		}
		if err := orch.Warm(names[i]); err != nil {
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
	bb, err := httpLoadSweep(shim.URL, names, inputs, env)
	shim.Close()
	orch.StopAll()
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "offered(req/s)  pretzel q/s   pretzel mean lat   clipper q/s   clipper mean lat")
	for i := range pz {
		fmt.Fprintf(w, "%-15d %-13.0f %-18v %-13.0f %v\n",
			pz[i].offered, pz[i].throughput, pz[i].meanLat.Round(time.Microsecond),
			bb[i].throughput, bb[i].meanLat.Round(time.Microsecond))
	}
	return nil
}

// httpLoadSweep drives Zipf-skewed load through an HTTP endpoint at each
// offered rate and measures achieved throughput and latency.
func httpLoadSweep(url string, names, inputs []string, env *Env) ([]loadResult, error) {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 256}}
	// Warm every model.
	for i, n := range names {
		if err := post(client, url, n, inputs[i%len(inputs)]); err != nil {
			return nil, err
		}
	}
	var results []loadResult
	for _, offered := range env.LoadPoints {
		zipf := workload.NewZipfPicker(len(names), 2, 11)
		interval := time.Second / time.Duration(offered)
		deadline := time.Now().Add(env.LoadWindow)
		lat := metrics.NewRecorder(1024)
		var completed atomic.Int64
		var wg sync.WaitGroup
		var errOnce sync.Once
		var firstErr error
		t0 := time.Now()
		next := t0
		for time.Now().Before(deadline) {
			mi := zipf.Pick()
			wg.Add(1)
			go func(mi int) {
				defer wg.Done()
				start := time.Now()
				if err := post(client, url, names[mi], inputs[mi%len(inputs)]); err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				lat.Record(time.Since(start))
				completed.Add(1)
			}(mi)
			next = next.Add(interval)
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
		}
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}
		el := time.Since(t0).Seconds()
		results = append(results, loadResult{
			offered:    offered,
			throughput: float64(completed.Load()) / el,
			meanLat:    lat.Mean(),
			p99Lat:     lat.Percentile(99),
		})
	}
	return results, nil
}
