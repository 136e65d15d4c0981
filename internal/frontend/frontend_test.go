package frontend

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"pretzel/internal/ml"
	"pretzel/internal/ops"
	"pretzel/internal/oven"
	"pretzel/internal/pipeline"
	"pretzel/internal/runtime"
	"pretzel/internal/schema"
	"pretzel/internal/serving"
	"pretzel/internal/store"
	"pretzel/internal/text"
)

// saPipe builds a deterministic little SA pipeline for frontend tests;
// bump differentiates model weights between versions.
func saPipe(t testing.TB, name string, bump float32) *pipeline.Pipeline {
	t.Helper()
	cb, wb := text.NewDictBuilder(), text.NewDictBuilder()
	for _, doc := range []string{"nice product great", "bad refund awful"} {
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
	return &pipeline.Pipeline{
		Name:        name,
		InputSchema: schema.Text("Text"),
		Nodes: []pipeline.Node{
			{Op: &ops.Tokenizer{}, Inputs: []int{pipeline.InputID}},
			{Op: &ops.CharNgram{MinN: 2, MaxN: 3, Dict: cd}, Inputs: []int{0}},
			{Op: &ops.WordNgram{MaxN: 2, Dict: wd}, Inputs: []int{0}},
			{Op: &ops.Concat{Dims: []int{cd.Size(), wd.Size()}}, Inputs: []int{1, 2}},
			{Op: &ops.LinearPredictor{Model: &ml.LinearModel{Kind: ml.LogisticRegression, Weights: weights}}, Inputs: []int{3}},
		},
	}
}

func saRuntime(t testing.TB) *runtime.Runtime {
	t.Helper()
	objStore := store.New()
	rt := runtime.New(objStore, runtime.Config{Executors: 2})
	t.Cleanup(rt.Close)
	opts := oven.DefaultOptions()
	opts.Plans = rt.PlanStore()
	pl, err := oven.Compile(saPipe(t, "sa", 0), objStore, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Register(pl); err != nil {
		t.Fatal(err)
	}
	return rt
}

func postPredict(t testing.TB, srv *httptest.Server, model, input string) (Response, int) {
	t.Helper()
	body, _ := json.Marshal(Request{Model: model, Input: input})
	resp, err := http.Post(srv.URL+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out, resp.StatusCode
}

func TestHTTPPredict(t *testing.T) {
	fe := newFE(saRuntime(t), Config{})
	srv := httptest.NewServer(fe)
	defer srv.Close()
	out, code := postPredict(t, srv, "sa", "a nice product")
	if code != http.StatusOK || out.Error != "" {
		t.Fatalf("code=%d err=%q", code, out.Error)
	}
	if len(out.Prediction) != 1 || out.Prediction[0] <= 0.5 {
		t.Fatalf("prediction %v", out.Prediction)
	}
	// Unknown model maps to 404, not 500.
	out, code = postPredict(t, srv, "nope", "x")
	if code != http.StatusNotFound || out.Error == "" {
		t.Fatalf("unknown model: code=%d out=%+v", code, out)
	}
	// Bad JSON.
	resp, err := http.Post(srv.URL+"/predict", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json code=%d", resp.StatusCode)
	}
	// GET not allowed.
	resp, err = http.Get(srv.URL + "/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET code=%d", resp.StatusCode)
	}
	// Health endpoint.
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatal("healthz")
	}
}

func TestPredictionCache(t *testing.T) {
	fe := newFE(saRuntime(t), Config{CacheEntries: 8})
	p1, cached1, err := fe.Predict("sa", "nice one")
	if err != nil || cached1 {
		t.Fatalf("first: %v cached=%v", err, cached1)
	}
	p2, cached2, err := fe.Predict("sa", "nice one")
	if err != nil || !cached2 {
		t.Fatalf("second should be cached: %v cached=%v", err, cached2)
	}
	if p1[0] != p2[0] {
		t.Fatal("cached result differs")
	}
	st := fe.CacheStats()
	if st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
	// Different input misses.
	if _, cached, _ := fe.Predict("sa", "another input"); cached {
		t.Fatal("different input must miss")
	}
}

func TestPredictionCacheEviction(t *testing.T) {
	fe := newFE(saRuntime(t), Config{CacheEntries: 2})
	inputs := []string{"a", "b", "c"}
	for _, in := range inputs {
		if _, _, err := fe.Predict("sa", in); err != nil {
			t.Fatal(err)
		}
	}
	// "a" is LRU and must have been evicted.
	if _, cached, _ := fe.Predict("sa", "a"); cached {
		t.Fatal("evicted entry reported cached")
	}
	if _, cached, _ := fe.Predict("sa", "c"); !cached {
		t.Fatal("recent entry should be cached")
	}
}

func TestDelayedBatching(t *testing.T) {
	rt := saRuntime(t)
	fe := newFE(rt, Config{BatchDelay: 10 * time.Millisecond})
	const n = 16
	var wg sync.WaitGroup
	results := make([][]float32, n)
	errs := make([]error, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, errs[i] = fe.Predict("sa", "nice product")
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("req %d: %v", i, errs[i])
		}
		if results[i][0] != results[0][0] {
			t.Fatal("batched results differ")
		}
	}
	if elapsed < 10*time.Millisecond {
		t.Fatalf("batching window not honoured: %v", elapsed)
	}
	// The window must flush as batched jobs (one per window), not one
	// job per buffered record — the whole point of delayed batching.
	if st := rt.SchedStats(); st.Submitted == 0 || st.Submitted >= n {
		t.Fatalf("expected few batched jobs for %d records, scheduler saw %d", n, st.Submitted)
	}
	// Errors propagate per request.
	if _, _, err := fe.Predict("missing", "x"); err == nil {
		t.Fatal("unknown model must error through the batch path")
	}
}

func TestCacheDisabled(t *testing.T) {
	fe := newFE(saRuntime(t), Config{})
	if st := fe.CacheStats(); st.Hits != 0 || st.Entries != 0 {
		t.Fatal("no cache stats expected")
	}
	if _, cached, err := fe.Predict("sa", "nice"); err != nil || cached {
		t.Fatal("no cache: must never report cached")
	}
}

// newFE builds a front end over a local engine — the test-side shim
// for the many call sites that hold a raw runtime.
func newFE(rt *runtime.Runtime, cfg Config) *Server {
	return New(serving.NewLocal(rt, cfg.CompileOptions), cfg)
}
