package cluster

// Placement-plane tests: probe hysteresis (flap damping), warmth-aware
// routing order (quarantine vs cold), the rebalancer's pre-warm
// protocol on join/leave, and the idle-goroutine guarantee.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pretzel/internal/chaos"
	"pretzel/internal/frontend"
	"pretzel/internal/lifecycle"
	"pretzel/internal/repo"
	"pretzel/internal/runtime"
	"pretzel/internal/serving"
	"pretzel/internal/store"
)

// flapServer is a probe target whose health can be toggled.
func flapServer(t *testing.T, fail *atomic.Bool) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fail.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		if r.URL.Path == "/readyz" {
			fmt.Fprint(w, `{"status":"ok"}`)
			return
		}
		fmt.Fprint(w, "ok")
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestProbeHysteresis: one failed probe round must NOT mark a member
// down (flap damping); two consecutive must, firing onDown exactly
// once; one clean round recovers immediately.
func TestProbeHysteresis(t *testing.T) {
	var fail atomic.Bool
	srv := flapServer(t, &fail)
	var downs atomic.Int32
	reg, err := newRegistry([]Member{{ID: "n0", Addr: srv.URL}}, http.DefaultClient, 50*time.Millisecond, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg.onDown = func(id string) { downs.Add(1) }
	m := reg.get("n0")

	fail.Store(true)
	reg.probe(m)
	if !m.up() || downs.Load() != 0 {
		t.Fatalf("one failed round must be damped: up=%v downs=%d", m.up(), downs.Load())
	}
	reg.probe(m)
	if m.up() || downs.Load() != 1 {
		t.Fatalf("two consecutive failures must mark down once: up=%v downs=%d", m.up(), downs.Load())
	}
	reg.probe(m)
	if downs.Load() != 1 {
		t.Fatalf("already-down member must not re-fire onDown: downs=%d", downs.Load())
	}

	// Recovery is immediate: one clean round.
	fail.Store(false)
	reg.probe(m)
	if !m.up() {
		t.Fatal("one clean round must recover the member")
	}
	// A fresh single flap is damped again (the streak reset on recovery).
	fail.Store(true)
	reg.probe(m)
	fail.Store(false)
	reg.probe(m)
	fail.Store(true)
	reg.probe(m)
	if !m.up() || downs.Load() != 1 {
		t.Fatalf("interleaved flaps must never accumulate: up=%v downs=%d", m.up(), downs.Load())
	}
}

// TestProbeFlappingUnderRace drives the live probe loop against a
// server that flips health every request while readers poll routing
// state — the -race exercise for the hysteresis plumbing.
func TestProbeFlappingUnderRace(t *testing.T) {
	// Health flips per probe ROUND (a round = healthz then readyz), not
	// per request, so the failure pattern is strictly alternating.
	var round atomic.Int64
	var roundFail atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			roundFail.Store(round.Add(1)%2 == 0)
		}
		if roundFail.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		if r.URL.Path == "/readyz" {
			fmt.Fprint(w, `{"status":"ok","quarantined":["flappy"]}`)
			return
		}
		fmt.Fprint(w, "ok")
	}))
	defer srv.Close()
	// The per-request probe timeout equals the interval — keep it far
	// above loopback latency so a slow scheduler tick cannot fabricate
	// the two consecutive transport failures this test forbids.
	reg, err := newRegistry([]Member{{ID: "n0", Addr: srv.URL}}, http.DefaultClient, 25*time.Millisecond, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	var downs atomic.Int32
	var downErr atomic.Value
	reg.onDown = func(id string) {
		downs.Add(1)
		if e, ok := reg.get(id).lastErr.Load().(string); ok {
			downErr.Store(e)
		}
	}
	reg.start()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					for _, m := range reg.all() {
						_ = m.up()
						_ = m.isQuarantined("flappy")
						_ = m.warmthSnapshot()
					}
					// Sleep between read rounds: on a small machine a
					// spinning reader starves the probe's HTTP client into
					// transport timeouts, which are real failed rounds.
					time.Sleep(200 * time.Microsecond)
				}
			}
		}()
	}
	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()
	reg.close()
	// Strict alternation (fail, ok, fail, ...) never produces two
	// consecutive failed rounds, so the member must never go down.
	if downs.Load() != 0 {
		t.Fatalf("alternating flaps went down %d times despite hysteresis (last: %v)", downs.Load(), downErr.Load())
	}
}

// newColdLifecycleNode builds a lifecycle-managed node whose repository
// already holds the given model zips — lazily, so every model starts
// cold (on disk, not in RAM).
func newColdLifecycleNode(t *testing.T, zips map[string][]byte) (*lifecycle.Manager, *httptest.Server) {
	t.Helper()
	rp, err := repo.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, zip := range zips {
		if _, err := rp.Put(name, 0, zip); err != nil {
			t.Fatal(err)
		}
	}
	rt := runtime.New(store.New(), runtime.Config{Executors: 2})
	mgr, err := lifecycle.New(serving.NewLocal(rt, nil), rp, lifecycle.Config{LazyLoad: true})
	if err != nil {
		rt.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	srv := httptest.NewServer(frontend.New(mgr, frontend.Config{}))
	t.Cleanup(srv.Close)
	return mgr, srv
}

// TestQuarantinedWarmLosesToHealthyCold: the scoring scale is
// lexicographic — a replica holding the model warm but quarantined
// (panic containment tripped, via the chaos injector) must rank BELOW a
// healthy replica that would have to cold-load it. Cold is a latency
// problem; quarantined is a correctness problem.
func TestQuarantinedWarmLosesToHealthyCold(t *testing.T) {
	zip := exportPipe(t, "qm")

	// Warm node: plain runtime with tight panic containment, wrapped in
	// the chaos injector that will trip the quarantine.
	rtWarm := runtime.New(store.New(), runtime.Config{
		Executors:      2,
		PanicThreshold: 2,
		PanicWindow:    time.Minute,
		Quarantine:     time.Minute,
	})
	inj := chaos.New(serving.NewLocal(rtWarm, nil), 7)
	t.Cleanup(func() { inj.Close() })
	if _, err := inj.Register(zip, serving.RegisterOptions{Name: "qm"}); err != nil {
		t.Fatal(err)
	}
	warmSrv := httptest.NewServer(frontend.New(inj, frontend.Config{}))
	t.Cleanup(warmSrv.Close)

	// Cold node: lifecycle tier holding the same model on disk only.
	_, coldSrv := newColdLifecycleNode(t, map[string][]byte{"qm": zip})

	r, err := NewRouter([]Member{
		{ID: "warm-node", Addr: warmSrv.URL},
		{ID: "cold-node", Addr: coldSrv.URL},
	}, Config{
		Replication:    2,
		ProbeInterval:  20 * time.Millisecond,
		WarmthInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })

	// Trip the warm node's quarantine through injected kernel panics.
	rule, err := inj.Arm(chaos.Rule{Model: "qm", Effect: chaos.EffectPanic})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		_, _ = inj.Predict(context.Background(), "qm", "a nice product", serving.PredictOptions{})
	}
	if err := inj.Disarm(rule.ID); err != nil {
		t.Fatal(err)
	}

	// Wait for the router's probes and warmth polls to see both truths:
	// the quarantine on warm-node, the cold state on cold-node.
	warm, cold := r.reg.get("warm-node"), r.reg.get("cold-node")
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		w := cold.warmthSnapshot()
		if warm.isQuarantined("qm") && w != nil && !warmState(w.models["qm"]) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !warm.isQuarantined("qm") {
		t.Fatal("probe never picked up the quarantine from /readyz")
	}
	if ws, cs := r.placementScore(warm, "qm"), r.placementScore(cold, "qm"); ws <= cs {
		t.Fatalf("quarantined-warm score %d must exceed healthy-cold score %d", ws, cs)
	}
	if got := r.routeOrder("qm", r.owners("qm")); got[0].ID != "cold-node" {
		t.Fatalf("route order %s,%s: quarantined-but-warm replica must lose to healthy-cold", got[0].ID, got[1].ID)
	}
	// And the routed predict lands on the cold node, pays its load, and
	// is counted as a cold-start route.
	if pred, err := r.Predict(context.Background(), "qm", "a nice product", serving.PredictOptions{}); err != nil || len(pred) != 1 {
		t.Fatalf("predict around the quarantine: %v %v", pred, err)
	}
	st := r.Stats()
	if st.Cluster.ColdRouted == 0 {
		t.Fatalf("cold-start route not counted: %+v", st.Cluster)
	}
}

// lnode is one lifecycle-backed cluster member — the production node
// shape (disk repository + RAM lifecycle), and the only shape that can
// act as a zip-replication source during a rebalance.
type lnode struct {
	mgr *lifecycle.Manager
	srv *httptest.Server
}

func (n *lnode) holds() map[string]bool {
	held := map[string]bool{}
	for _, mi := range n.mgr.Models() {
		bare, _ := runtime.SplitRef(mi.Name)
		held[bare] = true
	}
	return held
}

func newLifecycleNode(t *testing.T) *lnode {
	t.Helper()
	rp, err := repo.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rt := runtime.New(store.New(), runtime.Config{Executors: 2})
	mgr, err := lifecycle.New(serving.NewLocal(rt, nil), rp, lifecycle.Config{})
	if err != nil {
		rt.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	srv := httptest.NewServer(frontend.New(mgr, frontend.Config{}))
	t.Cleanup(srv.Close)
	return &lnode{mgr: mgr, srv: srv}
}

// newLifecycleCluster builds a router over n lifecycle nodes.
func newLifecycleCluster(t *testing.T, n, k int) ([]*lnode, *Router) {
	t.Helper()
	nodes := make([]*lnode, n)
	members := make([]Member, n)
	for i := range nodes {
		nodes[i] = newLifecycleNode(t)
		members[i] = Member{ID: fmt.Sprintf("node%d", i), Addr: nodes[i].srv.URL}
	}
	r, err := NewRouter(members, Config{
		Replication:    k,
		ProbeInterval:  50 * time.Millisecond,
		WarmthInterval: 25 * time.Millisecond,
		PrewarmStagger: -1, // tests want churn handled fast, not gently
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return nodes, r
}

// TestAddMemberPrewarmsBeforeTrafficShifts: by the time AddMember
// returns (ring swapped, traffic shifting), the new member must already
// hold every model the grown ring assigns it — replicated and
// registered, not waiting on a first-request cold start.
func TestAddMemberPrewarmsBeforeTrafficShifts(t *testing.T) {
	_, router := newLifecycleCluster(t, 3, 2)
	models := make([]string, 6)
	for i := range models {
		models[i] = fmt.Sprintf("chm-%d", i)
		if _, err := router.Register(exportPipe(t, models[i]), serving.RegisterOptions{Name: models[i]}); err != nil {
			t.Fatal(err)
		}
	}
	joined := newLifecycleNode(t)
	if err := router.AddMember("node3", joined.srv.URL); err != nil {
		t.Fatal(err)
	}

	owned := 0
	held := joined.holds()
	for _, m := range models {
		for _, o := range router.Owners(m) {
			if o != "node3" {
				continue
			}
			owned++
			if !held[m] {
				t.Fatalf("new member owns %s but does not hold it after AddMember returned (held %v)", m, held)
			}
		}
	}
	if owned == 0 {
		t.Fatalf("join moved no ownership at all: held %v", held)
	}
	st := router.Stats().Cluster
	if st.Rebalances == 0 || st.Prewarms == 0 {
		t.Fatalf("rebalance counters: %+v", st)
	}
	// Traffic on the rebalanced catalog is clean immediately.
	for _, m := range models {
		if _, err := router.Predict(context.Background(), m, "a nice product", serving.PredictOptions{}); err != nil {
			t.Fatalf("post-join predict %s: %v", m, err)
		}
	}
	// Duplicate join is refused.
	if err := router.AddMember("node3", joined.srv.URL); err == nil {
		t.Fatal("duplicate AddMember must fail")
	}
}

// TestRemoveMemberPromotesOwners: leaving a node swaps the ring
// immediately and pre-warms the survivors promoted into the freed
// ownership, so the shrunken fleet serves the whole catalog warm.
func TestRemoveMemberPromotesOwners(t *testing.T) {
	nodes, router := newLifecycleCluster(t, 3, 2)
	models := make([]string, 6)
	for i := range models {
		models[i] = fmt.Sprintf("rmm-%d", i)
		if _, err := router.Register(exportPipe(t, models[i]), serving.RegisterOptions{Name: models[i]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := router.RemoveMember("node1"); err != nil {
		t.Fatal(err)
	}
	if err := router.RemoveMember("node1"); err == nil {
		t.Fatal("double RemoveMember must fail")
	}
	held := map[int]map[string]bool{}
	for i, n := range nodes {
		held[i] = n.holds()
	}
	for _, m := range models {
		owners := router.Owners(m)
		if len(owners) != 2 {
			t.Fatalf("owners of %s after shrink: %v", m, owners)
		}
		for _, o := range owners {
			if o == "node1" {
				t.Fatalf("removed member still owns %s", m)
			}
			var idx int
			fmt.Sscanf(o, "node%d", &idx)
			if !held[idx][m] {
				t.Fatalf("promoted owner %s does not hold %s after RemoveMember returned", o, m)
			}
		}
		if _, err := router.Predict(context.Background(), m, "a nice product", serving.PredictOptions{}); err != nil {
			t.Fatalf("post-leave predict %s: %v", m, err)
		}
	}
}

// TestRouterCloseLeavesNoGoroutines: an idle router runs exactly its
// configured loops (probe, warmth), and Close reaps every one of them —
// churn handling must not leak background goroutines.
func TestRouterCloseLeavesNoGoroutines(t *testing.T) {
	n := newNode(t)
	base := goruntime.NumGoroutine()
	r, err := NewRouter([]Member{{ID: "n0", Addr: n.srv.URL}}, Config{
		Replication:    1,
		ProbeInterval:  10 * time.Millisecond,
		WarmthInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register(exportPipe(t, "gl"), serving.RegisterOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Predict(context.Background(), "gl", "a nice product", serving.PredictOptions{}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		// +1 slack: the HTTP client's idle-conn reaper may lag a tick.
		if goruntime.NumGoroutine() <= base+1 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	t.Fatalf("goroutines leaked after Close: %d > %d\n%s",
		goruntime.NumGoroutine(), base, buf[:goruntime.Stack(buf, true)])
}
