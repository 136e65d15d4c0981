package cluster

import (
	"archive/zip"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pretzel/internal/frontend"
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

// testPipe builds a deterministic little SA pipeline.
func testPipe(t testing.TB, name string) *pipeline.Pipeline {
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
		weights[cd.Size()+int(ix)] = 3
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

func exportPipe(t testing.TB, name string) []byte {
	t.Helper()
	zip, err := testPipe(t, name).ExportBytes()
	if err != nil {
		t.Fatal(err)
	}
	return zip
}

// node is one in-process cluster member: a real runtime behind a real
// HTTP front end on a loopback listener.
type node struct {
	rt  *runtime.Runtime
	srv *httptest.Server
}

func newNode(t testing.TB) *node {
	t.Helper()
	rt := runtime.New(store.New(), runtime.Config{Executors: 2})
	t.Cleanup(rt.Close)
	fe := frontend.New(serving.NewLocal(rt, nil), frontend.Config{})
	srv := httptest.NewServer(fe)
	t.Cleanup(srv.Close)
	return &node{rt: rt, srv: srv}
}

// newCluster starts n nodes and a router with the given replication.
func newCluster(t testing.TB, n, replication int) ([]*node, *Router) {
	t.Helper()
	nodes := make([]*node, n)
	members := make([]Member, n)
	for i := range nodes {
		nodes[i] = newNode(t)
		members[i] = Member{ID: fmt.Sprintf("node%d", i), Addr: nodes[i].srv.URL}
	}
	r, err := NewRouter(members, Config{
		Replication:     replication,
		ProbeInterval:   50 * time.Millisecond,
		BreakerCooldown: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return nodes, r
}

func nodeByID(nodes []*node, id string) *node {
	for i, n := range nodes {
		if fmt.Sprintf("node%d", i) == id {
			return n
		}
	}
	return nil
}

// --- ring unit tests ---

func TestRingOwners(t *testing.T) {
	r := NewRing(64)
	for _, n := range []string{"a", "b", "c"} {
		r.Add(n)
	}
	owners := r.Owners("model-x", 2)
	if len(owners) != 2 || owners[0] == owners[1] {
		t.Fatalf("owners %v", owners)
	}
	// Stable: same key, same owners.
	again := r.Owners("model-x", 2)
	if owners[0] != again[0] || owners[1] != again[1] {
		t.Fatalf("unstable placement %v vs %v", owners, again)
	}
	// K clamps to the member count.
	if got := r.Owners("model-x", 9); len(got) != 3 {
		t.Fatalf("clamped owners %v", got)
	}
	// Every node owns something across enough keys.
	counts := map[string]int{}
	for i := 0; i < 200; i++ {
		counts[r.Owners(fmt.Sprintf("m-%d", i), 1)[0]]++
	}
	for _, n := range []string{"a", "b", "c"} {
		if counts[n] == 0 {
			t.Fatalf("node %s owns nothing: %v", n, counts)
		}
	}
}

// TestRingRemoveMinimalMovement: removing a node only moves the keys it
// owned — the consistent-hashing property.
func TestRingRemoveMinimalMovement(t *testing.T) {
	r := NewRing(64)
	for _, n := range []string{"a", "b", "c"} {
		r.Add(n)
	}
	before := map[string]string{}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("m-%d", i)
		before[k] = r.Owners(k, 1)[0]
	}
	r.Remove("b")
	for k, prev := range before {
		now := r.Owners(k, 1)[0]
		if prev != "b" && now != prev {
			t.Fatalf("key %s moved %s→%s though its owner stayed", k, prev, now)
		}
		if now == "b" {
			t.Fatalf("key %s still owned by removed node", k)
		}
	}
}

func TestBreaker(t *testing.T) {
	now := time.Now()
	b := newBreaker(3, time.Second)
	for i := 0; i < 3; i++ {
		if !b.allow(now) {
			t.Fatalf("closed breaker must allow (failure %d)", i)
		}
		b.failure(now)
	}
	if b.state(now) != breakerOpen || b.allow(now) {
		t.Fatalf("breaker must be open after threshold: %s", b.state(now))
	}
	// After the cooldown, exactly one half-open trial is admitted.
	later := now.Add(2 * time.Second)
	if b.state(later) != breakerHalfOpen || !b.allow(later) {
		t.Fatal("cooldown must admit a trial")
	}
	if b.allow(later) {
		t.Fatal("only one trial at a time in half-open")
	}
	b.success()
	if b.state(later) != breakerClosed || !b.allow(later) {
		t.Fatal("trial success must close the circuit")
	}
}

// TestBreakerTrialNotWedgeable: a half-open trial that never reports
// back (wedged connection) stops blocking after one cooldown — the
// circuit must not be wedge-able shut forever.
func TestBreakerTrialNotWedgeable(t *testing.T) {
	now := time.Now()
	b := newBreaker(1, time.Second)
	b.failure(now) // open
	trial := now.Add(2 * time.Second)
	if !b.allow(trial) {
		t.Fatal("cooldown must admit a trial")
	}
	// The trial never calls success/failure. One cooldown later a new
	// trial must be admitted anyway.
	if b.allow(trial.Add(500 * time.Millisecond)) {
		t.Fatal("second trial admitted while first still pending")
	}
	if !b.allow(trial.Add(1100 * time.Millisecond)) {
		t.Fatal("wedged trial must expire and admit a new one")
	}
}

// TestUnknownModelDoesNotTripBreakers: replicas answering 404 are
// doing their job — junk model names must never open the circuit of a
// healthy node (that would 429 legitimate co-owned models).
func TestUnknownModelDoesNotTripBreakers(t *testing.T) {
	_, router := newCluster(t, 2, 2)
	for i := 0; i < 10; i++ {
		if _, err := router.Predict(context.Background(), "typo-model", "x", serving.PredictOptions{}); !errors.Is(err, runtime.ErrModelNotFound) {
			t.Fatalf("unknown model predict %d: %v", i, err)
		}
	}
	st := router.Stats()
	for _, ns := range st.Cluster.Nodes {
		if ns.Breaker != breakerClosed || ns.Failures != 0 {
			t.Fatalf("node %s penalized for 404s: breaker=%s failures=%d", ns.ID, ns.Breaker, ns.Failures)
		}
	}
	// A real model co-owned by the same nodes still serves.
	if _, err := router.Register(exportPipe(t, "sa-co"), serving.RegisterOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := router.Predict(context.Background(), "sa-co", "a nice product", serving.PredictOptions{}); err != nil {
		t.Fatalf("co-owned model after 404 storm: %v", err)
	}
}

// TestResolveCached: successful resolutions are served from the TTL
// cache (no extra catalog reads per predict), and lifecycle operations
// through the router invalidate immediately.
func TestResolveCached(t *testing.T) {
	nodes, router := newCluster(t, 2, 2)
	if _, err := router.Register(exportPipe(t, "sa-rc"), serving.RegisterOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, v, err := router.Resolve("sa-rc"); err != nil || v != 1 {
		t.Fatalf("resolve: %d %v", v, err)
	}
	// Kill every node: a cached resolution must still answer (no
	// remote call), proving the hot path skips the catalog read.
	for _, n := range nodes {
		n.srv.Close()
	}
	if _, v, err := router.Resolve("sa-rc"); err != nil || v != 1 {
		t.Fatalf("cached resolve after node death: %d %v", v, err)
	}
	// And expiry brings the remote path (now failing) back.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if _, _, err := router.Resolve("sa-rc"); err != nil {
			return // TTL expired, remote resolve failed as expected
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal("resolve cache never expired")
}

// --- acceptance: placement memory ---

// TestPlacementMemorySublinear is acceptance (a): with replication K=2
// of N=3, a model registered through the router lands on exactly 2
// nodes and the fleet's memory for it stays under 3× a single node's —
// the point of placement over replicate-everywhere.
func TestPlacementMemorySublinear(t *testing.T) {
	nodes, router := newCluster(t, 3, 2)
	zip := exportPipe(t, "sa-mem")

	reg, err := router.Register(zip, serving.RegisterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if reg.Name != "sa-mem" || reg.Version != 1 || len(reg.Nodes) != 2 {
		t.Fatalf("register result %+v", reg)
	}

	// Single-node baseline footprint.
	baseStore := store.New()
	baseRT := runtime.New(baseStore, runtime.Config{Executors: 1})
	defer baseRT.Close()
	p, err := pipeline.ImportBytes(zip)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := oven.Compile(p, baseStore, oven.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := baseRT.Register(pl); err != nil {
		t.Fatal(err)
	}
	base := baseRT.MemBytes()
	if base == 0 {
		t.Fatal("baseline MemBytes is zero")
	}

	holders, fleet := 0, 0
	for _, n := range nodes {
		fleet += n.rt.MemBytes()
		if n.rt.CatalogStats().Models > 0 {
			holders++
		}
	}
	if holders != 2 {
		t.Fatalf("model on %d nodes, want 2 (K=2)", holders)
	}
	if fleet >= 3*base {
		t.Fatalf("fleet MemBytes %d not sublinear (single node %d, 3x = %d)", fleet, base, 3*base)
	}

	// The routed predict round-trips through an owner.
	pred, err := router.Predict(context.Background(), "sa-mem", "a nice product", serving.PredictOptions{})
	if err != nil || len(pred) != 1 {
		t.Fatalf("routed predict: %v %v", pred, err)
	}
}

// --- acceptance: failover ---

// TestFailoverKeepsServing is acceptance (b): killing one owner node
// mid-load keeps the success rate at 100% for a replicated model — the
// router retries node-level failures on the surviving replica and the
// circuit breaker stops paying for the corpse.
func TestFailoverKeepsServing(t *testing.T) {
	nodes, router := newCluster(t, 3, 2)
	zip := exportPipe(t, "sa-ha")
	if _, err := router.Register(zip, serving.RegisterOptions{}); err != nil {
		t.Fatal(err)
	}
	owners := router.Owners("sa-ha")
	if len(owners) != 2 {
		t.Fatalf("owners %v", owners)
	}

	const workers, perWorker = 4, 100
	var failures atomic0
	var wg sync.WaitGroup
	killed := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := router.Predict(context.Background(), "sa-ha", "a nice product", serving.PredictOptions{}); err != nil {
					failures.add(fmt.Errorf("request %d: %w", i, err))
				}
				if i == perWorker/4 {
					<-killed // everyone sees some post-kill traffic
				}
			}
		}()
	}
	// Kill the primary owner while the load runs.
	time.Sleep(5 * time.Millisecond)
	nodeByID(nodes, owners[0]).srv.Close()
	close(killed)
	wg.Wait()

	if errs := failures.get(); len(errs) != 0 {
		t.Fatalf("%d/%d requests failed despite replication, first: %v",
			len(errs), workers*perWorker, errs[0])
	}
	st := router.Stats()
	if st.Cluster == nil || st.Cluster.Failovers == 0 {
		t.Fatalf("expected failovers in stats: %+v", st.Cluster)
	}
}

// atomic0 collects errors under a mutex (test helper).
type atomic0 struct {
	mu   sync.Mutex
	errs []error
}

func (a *atomic0) add(err error) {
	a.mu.Lock()
	a.errs = append(a.errs, err)
	a.mu.Unlock()
}

func (a *atomic0) get() []error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.errs
}

// --- sentinel mapping and lifecycle ---

func TestRouterSentinelMapping(t *testing.T) {
	nodes, router := newCluster(t, 2, 2)

	// Unknown model: every replica 404s → ErrModelNotFound.
	if _, err := router.Predict(context.Background(), "missing", "x", serving.PredictOptions{}); !errors.Is(err, runtime.ErrModelNotFound) {
		t.Fatalf("unknown model: %v", err)
	}

	zip := exportPipe(t, "sa-map")
	if _, err := router.Register(zip, serving.RegisterOptions{}); err != nil {
		t.Fatal(err)
	}

	// Expired deadline → ErrDeadlineExceeded, no failover.
	_, err := router.Predict(context.Background(), "sa-map", "x",
		serving.PredictOptions{Deadline: time.Now().Add(-time.Second)})
	if !errors.Is(err, runtime.ErrDeadlineExceeded) {
		t.Fatalf("expired deadline: %v", err)
	}

	// Canceled local context → ErrCanceled.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := router.Predict(ctx, "sa-map", "x", serving.PredictOptions{}); !errors.Is(err, runtime.ErrCanceled) {
		t.Fatalf("canceled ctx: %v", err)
	}

	// All replicas down → ErrOverloaded (back off and retry).
	for _, n := range nodes {
		n.srv.Close()
	}
	if _, err := router.Predict(context.Background(), "sa-map", "x", serving.PredictOptions{}); !errors.Is(err, runtime.ErrOverloaded) {
		t.Fatalf("dead fleet: %v", err)
	}
	// And readiness flips once the prober notices.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if router.Ready() != nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := router.Ready(); !errors.Is(err, serving.ErrNotReady) {
		t.Fatalf("dead fleet readiness: %v", err)
	}
}

// TestRouterRegisterBadParams: an unnamed upload whose manifest is valid
// but whose parameters are corrupt is placed by its manifest name and
// rejected by the owning nodes, which the router reports as ErrBadModel.
// An upload with no readable manifest fails at the router.
func TestRouterRegisterBadParams(t *testing.T) {
	_, router := newCluster(t, 2, 2)
	src := exportPipe(t, "sa-bad")
	zr, err := zip.NewReader(bytes.NewReader(src), int64(len(src)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	for _, f := range zr.File {
		raw, err := f.OpenRaw()
		if err != nil {
			t.Fatal(err)
		}
		fh := f.FileHeader
		if strings.HasSuffix(fh.Name, "/params.bin") {
			fh.CRC32 ^= 1
		}
		w, err := zw.CreateRaw(&fh)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(w, raw); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = router.Register(buf.Bytes(), serving.RegisterOptions{})
	if !errors.Is(err, serving.ErrBadModel) || !strings.Contains(err.Error(), "node node") {
		t.Fatalf("corrupt params: %v, want ErrBadModel from an owning node", err)
	}
	if models := router.Models(); len(models) != 0 {
		t.Fatalf("a rejected upload is in the catalog: %+v", models)
	}
	if _, err := router.Register([]byte("not a zip"), serving.RegisterOptions{}); !errors.Is(err, serving.ErrBadModel) {
		t.Fatalf("garbage upload: %v", err)
	}
}

func TestRouterLifecycle(t *testing.T) {
	_, router := newCluster(t, 3, 2)
	zip := exportPipe(t, "sa-life")
	reg, err := router.Register(zip, serving.RegisterOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Catalog union sees it once.
	models := router.Models()
	if len(models) != 1 || models[0].Name != "sa-life" {
		t.Fatalf("models %+v", models)
	}
	// Resolve through the stable label.
	if name, v, err := router.Resolve("sa-life"); err != nil || name != "sa-life" || v != 1 {
		t.Fatalf("resolve: %s %d %v", name, v, err)
	}
	if _, _, err := router.Resolve("sa-life@nope"); !errors.Is(err, runtime.ErrModelNotFound) {
		t.Fatalf("bad label resolve: %v", err)
	}

	// Second version + label move, replica-consistent.
	reg2, err := router.Register(zip, serving.RegisterOptions{Name: "sa-life"})
	if err != nil {
		t.Fatal(err)
	}
	if reg2.Version != 2 || len(reg2.Nodes) != len(reg.Nodes) {
		t.Fatalf("v2 register %+v (v1 %+v)", reg2, reg)
	}
	if err := router.SetLabel("sa-life", "stable", 2); err != nil {
		t.Fatal(err)
	}
	if _, v, _ := router.Resolve("sa-life"); v != 2 {
		t.Fatalf("post-swap resolve version %d", v)
	}

	// PredictBatch proxies per record.
	preds, err := router.PredictBatch(context.Background(), "sa-life",
		[]string{"a nice product", "awful refund"}, serving.PredictOptions{})
	if err != nil || len(preds) != 2 || len(preds[0]) != 1 {
		t.Fatalf("batch: %v %v", preds, err)
	}

	// Unregister fleet-wide.
	if err := router.Unregister("sa-life"); err != nil {
		t.Fatal(err)
	}
	if err := router.Unregister("sa-life"); !errors.Is(err, runtime.ErrModelNotFound) {
		t.Fatalf("double unregister: %v", err)
	}
	if _, err := router.Predict(context.Background(), "sa-life", "x", serving.PredictOptions{}); !errors.Is(err, runtime.ErrModelNotFound) {
		t.Fatalf("predict after unregister: %v", err)
	}
}

// TestFrontEndOverRouter drives a full front end (HTTP) over the
// routing engine: the seam makes the router indistinguishable from a
// local runtime, /statz shows the cluster view, /readyz is green.
func TestFrontEndOverRouter(t *testing.T) {
	_, router := newCluster(t, 3, 2)
	zip := exportPipe(t, "sa-fe")
	if _, err := router.Register(zip, serving.RegisterOptions{}); err != nil {
		t.Fatal(err)
	}
	fe := frontend.New(router, frontend.Config{})
	pred, _, err := fe.Predict("sa-fe", "a nice product")
	if err != nil || len(pred) != 1 {
		t.Fatalf("front-end predict over router: %v %v", pred, err)
	}
	st := router.Stats()
	if st.Kind != "router" || st.Cluster == nil || len(st.Cluster.Nodes) != 3 || st.Cluster.Forwards == 0 {
		t.Fatalf("router stats %+v", st)
	}
}
