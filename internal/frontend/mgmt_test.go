package frontend

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pretzel/internal/oven"
	"pretzel/internal/runtime"
	"pretzel/internal/store"
)

// emptyServer builds a FrontEnd over a runtime with no models.
func emptyServer(t testing.TB) (*Server, *httptest.Server) {
	t.Helper()
	rt := runtime.New(store.New(), runtime.Config{Executors: 2})
	t.Cleanup(rt.Close)
	fe := newFE(rt, Config{})
	srv := httptest.NewServer(fe)
	t.Cleanup(srv.Close)
	return fe, srv
}

func do(t testing.TB, method, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestManagementRoundTrip uploads a model zip, lists it, serves
// traffic, inspects the per-stage white-box counters, and deletes it.
func TestManagementRoundTrip(t *testing.T) {
	_, srv := emptyServer(t)

	zip, err := saPipe(t, "uploaded", 0).ExportBytes()
	if err != nil {
		t.Fatal(err)
	}

	// Upload → 201 with the assigned version.
	resp, body := do(t, http.MethodPost, srv.URL+"/models", zip)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload code=%d body=%s", resp.StatusCode, body)
	}
	var reg RegisterResponse
	if err := json.Unmarshal(body, &reg); err != nil {
		t.Fatal(err)
	}
	if reg.Name != "uploaded" || reg.Version != 1 {
		t.Fatalf("register response %+v", reg)
	}

	// List → the model is present with its stable label.
	resp, body = do(t, http.MethodGet, srv.URL+"/models", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list code=%d", resp.StatusCode)
	}
	var list ModelsResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Models) != 1 || list.Models[0].Name != "uploaded" || list.Models[0].Labels["stable"] != 1 {
		t.Fatalf("list %+v", list)
	}

	// Predict against the uploaded model.
	out, code := postPredict(t, srv, "uploaded", "a nice product")
	if code != http.StatusOK || out.Error != "" {
		t.Fatalf("predict code=%d out=%+v", code, out)
	}

	// Detail → per-stage white-box counters moved with the traffic.
	resp, body = do(t, http.MethodGet, srv.URL+"/models/uploaded", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("detail code=%d", resp.StatusCode)
	}
	var info runtime.ModelInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if len(info.Versions) != 1 || len(info.Versions[0].Stages) == 0 {
		t.Fatalf("detail %+v", info)
	}
	for _, st := range info.Versions[0].Stages {
		if st.Execs == 0 || st.TotalNanos == 0 {
			t.Fatalf("stage %d has zero counters after traffic: %+v", st.Index, st)
		}
		if st.Kernel == "" || len(st.Ops) == 0 {
			t.Fatalf("stage %d missing white-box identity: %+v", st.Index, st)
		}
	}

	// Upload v2 and point "stable" at it in one call.
	resp, body = do(t, http.MethodPost, srv.URL+"/models?name=uploaded&version=2&label=stable", zip)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload v2 code=%d body=%s", resp.StatusCode, body)
	}
	// Move a label via the label endpoint.
	lbl, _ := json.Marshal(LabelRequest{Label: "canary", Version: 1})
	resp, body = do(t, http.MethodPost, srv.URL+"/models/uploaded/labels", lbl)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("label code=%d body=%s", resp.StatusCode, body)
	}
	resp, body = do(t, http.MethodGet, srv.URL+"/models/uploaded", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatal("detail after labels")
	}
	info = runtime.ModelInfo{}
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Labels["stable"] != 2 || info.Labels["canary"] != 1 || len(info.Versions) != 2 {
		t.Fatalf("after rollout: %+v", info)
	}

	// Delete one version, then the whole model.
	resp, _ = do(t, http.MethodDelete, srv.URL+"/models/uploaded@2", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete v2 code=%d", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodDelete, srv.URL+"/models/uploaded", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete code=%d", resp.StatusCode)
	}
	if _, code := postPredict(t, srv, "uploaded", "x"); code != http.StatusNotFound {
		t.Fatalf("predict after delete code=%d", code)
	}
	resp, _ = do(t, http.MethodDelete, srv.URL+"/models/uploaded", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete code=%d", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodGet, srv.URL+"/models/uploaded", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("detail after delete code=%d", resp.StatusCode)
	}
}

func TestUploadRejectsGarbage(t *testing.T) {
	_, srv := emptyServer(t)
	resp, _ := do(t, http.MethodPost, srv.URL+"/models", []byte("not a zip"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage upload code=%d", resp.StatusCode)
	}
	zip, err := saPipe(t, "m", 0).ExportBytes()
	if err != nil {
		t.Fatal(err)
	}
	resp, _ = do(t, http.MethodPost, srv.URL+"/models?version=zero", zip)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad version code=%d", resp.StatusCode)
	}
	// Duplicate version conflicts.
	if resp, _ = do(t, http.MethodPost, srv.URL+"/models?version=1", zip); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first upload code=%d", resp.StatusCode)
	}
	if resp, _ = do(t, http.MethodPost, srv.URL+"/models?version=1", zip); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate upload code=%d", resp.StatusCode)
	}
}

// TestPredictDeadline504 is the acceptance test for the HTTP face of
// deadline enforcement: an already-expired deadline returns 504 with
// the typed error surfaced, and the unit-level path returns
// ErrDeadlineExceeded / ErrCanceled.
func TestPredictDeadline504(t *testing.T) {
	rt := saRuntime(t)
	fe := newFE(rt, Config{})
	srv := httptest.NewServer(fe)
	defer srv.Close()

	body, _ := json.Marshal(Request{
		Model:          "sa",
		Input:          "a nice product",
		DeadlineUnixNS: time.Now().Add(-time.Second).UnixNano(),
	})
	resp, err := http.Post(srv.URL+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout || out.Error == "" {
		t.Fatalf("expired deadline: code=%d out=%+v", resp.StatusCode, out)
	}

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, _, err := fe.PredictCtx(ctx, "sa", "nice"); !errors.Is(err, runtime.ErrDeadlineExceeded) {
		t.Fatalf("PredictCtx expired: %v", err)
	}
	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	if _, _, err := fe.PredictCtx(cctx, "sa", "nice"); !errors.Is(err, runtime.ErrCanceled) {
		t.Fatalf("PredictCtx canceled: %v", err)
	}
}

func TestStatz(t *testing.T) {
	rt := saRuntime(t)
	fe := newFE(rt, Config{CacheEntries: 4})
	srv := httptest.NewServer(fe)
	defer srv.Close()
	if _, _, err := fe.Predict("sa", "a nice product"); err != nil {
		t.Fatal(err)
	}
	resp, body := do(t, http.MethodGet, srv.URL+"/statz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("statz code=%d", resp.StatusCode)
	}
	var st Statz
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("statz decode: %v\n%s", err, body)
	}
	if st.PlanStore.Unique == 0 || st.Catalog.Models != 1 {
		t.Fatalf("statz catalog %+v, plan store %+v", st.Catalog, st.PlanStore)
	}
	if st.Sched.Executors != 2 {
		t.Fatalf("statz sched %+v", st.Sched)
	}
	if st.RRPool.Gets == 0 {
		t.Fatalf("statz rr pool %+v", st.RRPool)
	}
	if st.ObjectStore.Unique == 0 || st.ObjectStore.Bytes == 0 {
		t.Fatalf("statz object store %+v", st.ObjectStore)
	}
	// No materialization cache configured: stats are zero-valued.
	if st.MatCache.Entries != 0 || st.MatCache.Hits != 0 {
		t.Fatalf("statz mat cache %+v", st.MatCache)
	}
}

// TestStatzMatCache: with materialization enabled, /statz makes the
// cache's effectiveness (hits, misses, entries, bytes) observable.
func TestStatzMatCache(t *testing.T) {
	objStore := store.New()
	rt := runtime.New(objStore, runtime.Config{Executors: 2, MatCacheBytes: 8 << 20})
	t.Cleanup(rt.Close)
	pl, err := oven.Compile(saPipe(t, "sa", 0), objStore, oven.Options{Materialization: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Register(pl); err != nil {
		t.Fatal(err)
	}
	fe := newFE(rt, Config{})
	srv := httptest.NewServer(fe)
	defer srv.Close()
	for i := 0; i < 2; i++ {
		if _, _, err := fe.Predict("sa", "a nice product"); err != nil {
			t.Fatal(err)
		}
	}
	var st Statz
	_, body := do(t, http.MethodGet, srv.URL+"/statz", nil)
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.MatCache.Entries == 0 || st.MatCache.Hits == 0 || st.MatCache.Bytes == 0 || st.MatCache.Shards == 0 {
		t.Fatalf("statz mat cache %+v", st.MatCache)
	}
}

// TestHotSwapOverHTTP registers v2, moves "stable" and deletes v1 while
// HTTP predict traffic flows; no request may fail.
func TestHotSwapOverHTTP(t *testing.T) {
	_, srv := emptyServer(t)
	zip, err := saPipe(t, "m", 0).ExportBytes()
	if err != nil {
		t.Fatal(err)
	}
	if resp, body := do(t, http.MethodPost, srv.URL+"/models", zip); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d %s", resp.StatusCode, body)
	}

	stop := make(chan struct{})
	errCh := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			for {
				select {
				case <-stop:
					errCh <- nil
					return
				default:
				}
				out, code := postPredict(t, srv, "m", "a nice product")
				if code != http.StatusOK {
					errCh <- fmt.Errorf("predict failed: code=%d err=%s", code, out.Error)
					return
				}
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	if resp, body := do(t, http.MethodPost, srv.URL+"/models?version=2&label=stable", zip); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload v2: %d %s", resp.StatusCode, body)
	}
	if resp, body := do(t, http.MethodDelete, srv.URL+"/models/m@1", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete v1: %d %s", resp.StatusCode, body)
	}
	time.Sleep(5 * time.Millisecond)
	close(stop)
	for g := 0; g < 4; g++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
}

// TestCacheNotStaleAcrossHotSwap: the prediction cache is keyed by the
// concrete resolved version, so a label move immediately serves the new
// version instead of cached old-version results.
func TestCacheNotStaleAcrossHotSwap(t *testing.T) {
	rt := runtime.New(store.New(), runtime.Config{Executors: 2})
	t.Cleanup(rt.Close)
	fe := newFE(rt, Config{CacheEntries: 16})
	srv := httptest.NewServer(fe)
	t.Cleanup(srv.Close)

	// Versions with different weights → different predictions.
	zipV1, err := saPipe(t, "m", 0).ExportBytes()
	if err != nil {
		t.Fatal(err)
	}
	zipV2, err := saPipe(t, "m", -2.6).ExportBytes()
	if err != nil {
		t.Fatal(err)
	}
	if resp, body := do(t, http.MethodPost, srv.URL+"/models", zipV1); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload v1: %d %s", resp.StatusCode, body)
	}

	const input = "a nice product"
	p1, cached, err := fe.Predict("m", input)
	if err != nil || cached {
		t.Fatalf("first predict: %v cached=%v", err, cached)
	}
	if _, cached, _ := fe.Predict("m", input); !cached {
		t.Fatal("second predict must be cached")
	}

	// Hot swap to v2.
	if resp, body := do(t, http.MethodPost, srv.URL+"/models?version=2&label=stable", zipV2); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload v2: %d %s", resp.StatusCode, body)
	}
	p2, cached, err := fe.Predict("m", input)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("post-swap predict must miss the cache (new concrete version)")
	}
	if p1[0] == p2[0] {
		t.Fatalf("post-swap prediction identical to v1's (%v) — stale cache?", p1[0])
	}
	// The old version still serves (and caches) via explicit reference.
	pOld, _, err := fe.Predict("m@1", input)
	if err != nil || pOld[0] != p1[0] {
		t.Fatalf("explicit v1: %v %v (want %v)", pOld, err, p1[0])
	}
}

// TestDelayedModeDeadline: deadline_unix_ns is honoured in delayed-
// batching mode too — an expired request is shed with a typed 504, not
// silently executed.
func TestDelayedModeDeadline(t *testing.T) {
	rt := saRuntime(t)
	fe := newFE(rt, Config{BatchDelay: 5 * time.Millisecond})
	srv := httptest.NewServer(fe)
	defer srv.Close()

	body, _ := json.Marshal(Request{
		Model:          "sa",
		Input:          "a nice product",
		DeadlineUnixNS: time.Now().Add(-time.Second).UnixNano(),
	})
	resp, err := http.Post(srv.URL+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout || out.Error == "" {
		t.Fatalf("delayed expired deadline: code=%d out=%+v", resp.StatusCode, out)
	}
	if st := rt.SchedStats(); st.Submitted != 0 {
		t.Fatalf("expired request must not reach the batch engine: %+v", st)
	}
	// A live request still works.
	if out, code := postPredict(t, srv, "sa", "a nice product"); code != http.StatusOK || out.Error != "" {
		t.Fatalf("live delayed predict: code=%d out=%+v", code, out)
	}
}
