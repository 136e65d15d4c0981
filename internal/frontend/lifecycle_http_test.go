package frontend

// HTTP-level tests of the model storage tier's management surface:
// lifecycle state on GET /models, the /statz lifecycle section, and
// POST /models/{name}/pin (501 without a manager, 404 for unknown
// models, pin/unpin round trip).

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pretzel/internal/lifecycle"
	"pretzel/internal/repo"
	"pretzel/internal/runtime"
	"pretzel/internal/serving"
	"pretzel/internal/store"
)

// lifecycleFE builds a front end over a lifecycle manager with the
// given models published to a fresh on-disk repository.
func lifecycleFE(t testing.TB, cfg lifecycle.Config, names ...string) (*Server, *lifecycle.Manager) {
	t.Helper()
	r, err := repo.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		zip, err := saPipe(t, name, float32(i)).ExportBytes()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Put(name, 0, zip); err != nil {
			t.Fatal(err)
		}
	}
	rt := runtime.New(store.New(), runtime.Config{Executors: 2})
	mgr, err := lifecycle.New(serving.NewLocal(rt, nil), r, cfg)
	if err != nil {
		rt.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	return New(mgr, Config{}), mgr
}

func TestMgmtLifecycleStateAndStatz(t *testing.T) {
	fe, _ := lifecycleFE(t, lifecycle.Config{LazyLoad: true, RAMBudget: 1 << 30}, "warmy", "coldy")
	srv := httptest.NewServer(fe)
	defer srv.Close()

	if _, code := postPredict(t, srv, "warmy", "a nice product"); code != http.StatusOK {
		t.Fatalf("cold predict over HTTP: %d", code)
	}

	// GET /models reports per-model lifecycle state and mem_bytes.
	resp, err := http.Get(srv.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	var list ModelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Models) != 2 {
		t.Fatalf("models: %+v", list.Models)
	}
	states := map[string]runtime.ModelInfo{}
	for _, mi := range list.Models {
		states[mi.Name] = mi
	}
	if mi := states["warmy"]; mi.State != lifecycle.StateWarm || mi.MemBytes <= 0 {
		t.Fatalf("warmy: %+v", mi)
	}
	if mi := states["coldy"]; mi.State != lifecycle.StateCold || mi.MemBytes <= 0 {
		t.Fatalf("coldy: %+v", mi)
	}

	// GET /models/{name} carries the same fields.
	resp, err = http.Get(srv.URL + "/models/coldy")
	if err != nil {
		t.Fatal(err)
	}
	var detail ModelDetail
	if err := json.NewDecoder(resp.Body).Decode(&detail); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if detail.State != lifecycle.StateCold {
		t.Fatalf("detail: %+v", detail.ModelInfo)
	}

	// /statz exposes the lifecycle section with residency, budget and
	// the cold-start histogram.
	resp, err = http.Get(srv.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	var statz Statz
	if err := json.NewDecoder(resp.Body).Decode(&statz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ls := statz.Lifecycle
	if ls == nil {
		t.Fatal("statz must carry the lifecycle section")
	}
	if ls.BudgetBytes != 1<<30 || !ls.Lazy || ls.Warm != 1 || ls.Cold != 1 {
		t.Fatalf("lifecycle stats: %+v", ls)
	}
	if ls.ResidentBytes <= 0 || ls.ColdLoads != 1 || ls.ColdStart.Count != 1 {
		t.Fatalf("lifecycle counters: %+v", ls)
	}
	if ls.RepoModels != 2 || ls.RepoBytes <= 0 {
		t.Fatalf("repo inventory: %+v", ls)
	}
}

func TestMgmtPinEndpoint(t *testing.T) {
	fe, mgr := lifecycleFE(t, lifecycle.Config{LazyLoad: true}, "sa")
	srv := httptest.NewServer(fe)
	defer srv.Close()

	// Pin with an empty body: loads the cold model and marks it.
	resp, err := http.Post(srv.URL+"/models/sa/pin", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pin: %d", resp.StatusCode)
	}
	mi, err := mgr.ModelInfo("sa")
	if err != nil || !mi.Pinned || mi.State != lifecycle.StateWarm {
		t.Fatalf("after pin: %+v %v", mi, err)
	}
	if got := mgr.LStats().Pinned; got != 1 {
		t.Fatalf("pinned count %d", got)
	}

	// Unpin via body.
	resp, err = http.Post(srv.URL+"/models/sa/pin", "application/json",
		strings.NewReader(`{"pinned":false}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unpin: %d", resp.StatusCode)
	}
	if mi, _ := mgr.ModelInfo("sa"); mi.Pinned {
		t.Fatal("unpin did not stick")
	}

	// Unknown model: 404.
	resp, err = http.Post(srv.URL+"/models/ghost/pin", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pin unknown: %d", resp.StatusCode)
	}

	// Garbage body: 400.
	resp, err = http.Post(srv.URL+"/models/sa/pin", "application/json",
		bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("pin bad body: %d", resp.StatusCode)
	}
}

// TestColdVersionRefThroughResultCache: with the result cache on, every
// /predict resolves its reference first — so a cold model's "m@v2" must
// resolve to version 2 exactly as it does once the model is warm, not
// 404 as an unknown label.
func TestColdVersionRefThroughResultCache(t *testing.T) {
	_, mgr := lifecycleFE(t, lifecycle.Config{LazyLoad: true}, "m", "m") // versions 1 and 2
	srv := httptest.NewServer(New(mgr, Config{CacheEntries: 16}))
	defer srv.Close()

	resolve := func(when string) {
		t.Helper()
		for _, ref := range []string{"m@v2", "m@2"} {
			if name, v, err := mgr.Resolve(ref); err != nil || name != "m" || v != 2 {
				t.Fatalf("%s: Resolve(%q) = %s@%d, %v; want m@2", when, ref, name, v, err)
			}
		}
	}
	resolve("cold")
	if mi, _ := mgr.ModelInfo("m"); mi.State != lifecycle.StateCold {
		t.Fatalf("resolving must not load: %q", mi.State)
	}
	cold, code := postPredict(t, srv, "m@v2", "a nice product")
	if code != http.StatusOK || cold.Cached {
		t.Fatalf("cold m@v2 over HTTP: %d %+v", code, cold)
	}
	resolve("warm")
	warm, code := postPredict(t, srv, "m@v2", "a nice product")
	if code != http.StatusOK || !warm.Cached || warm.Prediction[0] != cold.Prediction[0] {
		t.Fatalf("warm m@v2 must hit the entry the cold request cached: %d %+v", code, warm)
	}
	// It is version 2 that answered, not the stable version 1.
	v1, _ := postPredict(t, srv, "m", "a nice product")
	v2, _ := postPredict(t, srv, "m@2", "a nice product")
	if cold.Prediction[0] != v2.Prediction[0] || cold.Prediction[0] == v1.Prediction[0] || !v2.Cached {
		t.Fatalf("m@v2 answered %v; v1 %v, v2 %+v", cold.Prediction, v1.Prediction, v2)
	}
}
