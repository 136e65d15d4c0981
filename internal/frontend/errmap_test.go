package frontend

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pretzel/internal/runtime"
	"pretzel/internal/serving"
)

func jsonBody(t testing.TB, v any) io.Reader {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(raw)
}

// stubEngine is a serving.Engine whose dispatch paths fail with a
// configurable error — the seam makes the front end's error mapping
// testable without provoking each failure inside a real runtime.
type stubEngine struct {
	err  error // returned by Predict / PredictBatch (nil = serve)
	pred []float32
}

func (s *stubEngine) Predict(ctx context.Context, model, input string, opts serving.PredictOptions) ([]float32, error) {
	if s.err != nil {
		return nil, s.err
	}
	return s.pred, nil
}

func (s *stubEngine) PredictBatch(ctx context.Context, model string, inputs []string, opts serving.PredictOptions) ([][]float32, error) {
	if s.err != nil {
		return nil, s.err
	}
	out := make([][]float32, len(inputs))
	for i := range out {
		out[i] = s.pred
	}
	return out, nil
}

func (s *stubEngine) Resolve(ref string) (string, int, error) { return ref, 1, nil }
func (s *stubEngine) Models() []runtime.ModelInfo             { return nil }
func (s *stubEngine) ModelInfo(name string) (runtime.ModelInfo, error) {
	return runtime.ModelInfo{}, fmt.Errorf("%w: %q", runtime.ErrModelNotFound, name)
}
func (s *stubEngine) Register(zip []byte, opts serving.RegisterOptions) (serving.RegisterResult, error) {
	return serving.RegisterResult{}, serving.ErrBadModel
}
func (s *stubEngine) Unregister(ref string) error                    { return nil }
func (s *stubEngine) SetLabel(name, label string, version int) error { return nil }
func (s *stubEngine) Stats() serving.Stats                           { return serving.Stats{Kind: "stub"} }
func (s *stubEngine) Ready() error                                   { return nil }
func (s *stubEngine) Close() error                                   { return nil }

// TestSentinelStatusTable asserts that EVERY typed sentinel of the
// serving seam maps to its HTTP status through both the direct predict
// path and the delayed-batching path — the contract cluster routers
// round-trip statuses back through, so a drifting mapping would
// corrupt failover decisions fleet-wide.
func TestSentinelStatusTable(t *testing.T) {
	cases := []struct {
		err  error
		code int
	}{
		{runtime.ErrModelNotFound, http.StatusNotFound},
		{runtime.ErrDeadlineExceeded, http.StatusGatewayTimeout},
		{runtime.ErrCanceled, http.StatusGatewayTimeout},
		{runtime.ErrClosed, http.StatusServiceUnavailable},
		{runtime.ErrInvalidInput, http.StatusBadRequest},
		{runtime.ErrOverloaded, http.StatusTooManyRequests},
		{serving.ErrNotReady, http.StatusServiceUnavailable},
		{serving.ErrBadModel, http.StatusBadRequest},
		{errors.New("unclassified"), http.StatusInternalServerError},
	}
	paths := []struct {
		name string
		cfg  Config
	}{
		{"direct", Config{}},
		{"batched", Config{BatchDelay: time.Millisecond}},
	}
	for _, path := range paths {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/%v", path.name, tc.err), func(t *testing.T) {
				eng := &stubEngine{err: fmt.Errorf("wrapped: %w", tc.err)}
				srv := httptest.NewServer(New(eng, path.cfg))
				defer srv.Close()
				out, code := postPredict(t, srv, "m", "x")
				if code != tc.code {
					t.Fatalf("%s path: %v mapped to %d, want %d (%+v)", path.name, tc.err, code, tc.code, out)
				}
				if out.Error == "" {
					t.Fatalf("%s path: error body missing for %v", path.name, tc.err)
				}
			})
		}
	}
}

// TestOversizedBodyIs413: a /predict body over the fixed 1 MiB bound is
// refused with 413 instead of being buffered.
func TestOversizedBodyIs413(t *testing.T) {
	srv := httptest.NewServer(New(&stubEngine{pred: []float32{1}}, Config{}))
	defer srv.Close()
	out, code := postPredict(t, srv, "m", strings.Repeat("x", 2<<20))
	if code != http.StatusRequestEntityTooLarge || out.Error == "" {
		t.Fatalf("2 MiB body: code=%d body=%+v, want 413 with an error", code, out)
	}
	if _, code := postPredict(t, srv, "m", "x"); code != http.StatusOK {
		t.Fatalf("small body after an oversized one: code=%d", code)
	}
}

// TestRetryAfterOn429: overload responses carry the backoff hint.
func TestRetryAfterOn429(t *testing.T) {
	eng := &stubEngine{err: runtime.ErrOverloaded}
	srv := httptest.NewServer(New(eng, Config{}))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/predict", "application/json", jsonBody(t, Request{Model: "m", Input: "x"}))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("code=%d retry-after=%q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestReadyz: readiness follows the engine's Ready and the draining
// flag; liveness stays green throughout.
func TestReadyz(t *testing.T) {
	eng := &stubEngine{pred: []float32{1}}
	fe := New(eng, Config{})
	srv := httptest.NewServer(fe)
	defer srv.Close()

	get := func(path string) int {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if get("/healthz") != http.StatusOK || get("/readyz") != http.StatusOK {
		t.Fatal("fresh server must be live and ready")
	}
	// Draining: not ready, still alive.
	if err := fe.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if get("/readyz") != http.StatusServiceUnavailable {
		t.Fatal("draining server must be not-ready")
	}
	if get("/healthz") != http.StatusOK {
		t.Fatal("draining server must stay live")
	}
}

// TestReadyzEngineNotReady: an engine-level readiness failure surfaces
// as 503 with the reason in the body.
func TestReadyzEngineNotReady(t *testing.T) {
	eng := &readyErrEngine{stubEngine{pred: []float32{1}}}
	srv := httptest.NewServer(New(eng, Config{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz code=%d", resp.StatusCode)
	}
}

type readyErrEngine struct{ stubEngine }

func (e *readyErrEngine) Ready() error { return fmt.Errorf("%w: runtime closed", serving.ErrNotReady) }

// TestDrainFlushesBatchers is the graceful-shutdown contract: requests
// buffered before Drain are flushed and answered (without waiting out
// the full delay bound), requests arriving after Drain are rejected
// with 503, and Drain returns once every batcher is idle.
func TestDrainFlushesBatchers(t *testing.T) {
	rt := saRuntime(t)
	// A long delay bound: an undrained flush would take 10s, so the
	// test passing quickly proves Drain force-flushes.
	fe := newFE(rt, Config{BatchDelay: 10 * time.Second})

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	preds := make([][]float32, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			preds[i], _, errs[i] = fe.Predict("sa", "a nice product")
		}(i)
	}
	// Wait until the requests are actually buffered.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if st := fe.BatcherStats()["sa"]; st.Pending == n {
			break
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := fe.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil || len(preds[i]) == 0 {
			t.Fatalf("buffered request %d dropped by drain: %v", i, errs[i])
		}
	}
	// New work is rejected with the 503 sentinel.
	if _, _, err := fe.Predict("sa", "x"); !errors.Is(err, runtime.ErrClosed) {
		t.Fatalf("post-drain predict: %v", err)
	}
	// And the batchers are idle (no loop goroutine lingers).
	if st := fe.BatcherStats()["sa"]; st.Pending != 0 {
		t.Fatalf("pending after drain: %+v", st)
	}
}
