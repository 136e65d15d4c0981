package bench

// Churn experiment: membership change under live Zipf traffic. One
// fleet is killed-and-regrown twice — once with the placement plane on
// (warm-aware routing + rebalancer pre-warm) and once in hash-only
// mode (the router without placement: pure ring order, no pre-warm) —
// and what the router did in the churn window is counted. The claim
// under test: the rebalancer makes join/leave invisible to the tail,
// because traffic only shifts onto replicas that already hold the
// models warm; without it, every request that hashes onto a new (empty)
// or promoted (cold) owner pays a 404-failover round trip through the
// retry backoff, and the tail collapses. The verdicts are counts of that
// mechanism (pre-warms, cold routes, failovers), not a wall-clock
// ratio; the tail latencies are printed beside them.

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pretzel/internal/cluster"
	"pretzel/internal/frontend"
	"pretzel/internal/lifecycle"
	"pretzel/internal/metrics"
	"pretzel/internal/repo"
	"pretzel/internal/runtime"
	"pretzel/internal/serving"
	"pretzel/internal/store"
	"pretzel/internal/workload"
)

// churnNode is one lifecycle-backed fleet member: disk repository +
// RAM lifecycle behind a paced engine — the production node shape, and
// the only shape that can answer the rebalancer's zip-replication and
// warm calls.
type churnNode struct {
	dir string
	mgr *lifecycle.Manager
	srv *httptest.Server
}

func newChurnNode(service time.Duration) (*churnNode, error) {
	dir, err := os.MkdirTemp("", "pretzel-churn-")
	if err != nil {
		return nil, err
	}
	rp, err := repo.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	rt := runtime.New(store.New(), runtime.Config{Executors: 1})
	mgr, err := lifecycle.New(serving.NewLocal(rt, nil), rp, lifecycle.Config{})
	if err != nil {
		rt.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	srv := httptest.NewServer(frontend.New(newPacedEngine(mgr, service), frontend.Config{}))
	return &churnNode{dir: dir, mgr: mgr, srv: srv}, nil
}

func (n *churnNode) close() {
	n.srv.Close()
	n.mgr.Close()
	os.RemoveAll(n.dir)
}

// churnResult is one mode's run through the churn drill.
type churnResult struct {
	Total, Failed  int
	BaseP99        time.Duration // before any churn
	ChurnP99       time.Duration // after the join's ring swap
	Prewarms       uint64
	PrewarmErrs    uint64
	Rebalances     uint64
	WarmRouted     uint64
	JoinedColdLoad uint64 // cold loads the joined node paid itself
	// The churn window's counts: from AddMember's return to the end.
	ColdRouted uint64 // first attempts sent to a replica known cold
	Failovers  uint64 // retries moved to another replica
	Retries    uint64 // attempts beyond each request's first
}

func (r churnResult) Success() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Total-r.Failed) / float64(r.Total)
}

// runChurnMode drives one fleet through the full drill: warmup under
// Zipf traffic, kill an owner (listener down, then RemoveMember),
// settle, then AddMember a fresh node while measuring the churn
// window. Traffic never stops; every request lands in the base or
// churn histogram depending on phase.
func runChurnMode(env *Env, hashOnly bool) (churnResult, error) {
	const (
		nNodes  = 3
		k       = 2
		nModels = 12
		service = 500 * time.Microsecond
		workers = 3
		warmup  = 200 * time.Millisecond
		settle  = 300 * time.Millisecond
	)
	var res churnResult

	nodes := make([]*churnNode, nNodes)
	members := make([]cluster.Member, nNodes)
	for i := range nodes {
		n, err := newChurnNode(service)
		if err != nil {
			return res, err
		}
		defer n.close()
		nodes[i] = n
		members[i] = cluster.Member{ID: fmt.Sprintf("node%d", i), Addr: n.srv.URL}
	}
	router, err := cluster.NewRouter(members, cluster.Config{
		Replication:    k,
		ProbeInterval:  50 * time.Millisecond,
		WarmthInterval: 40 * time.Millisecond,
		// An amplified failover penalty, identical in both modes: the
		// differential is WHO pays it, not how big it is.
		RetryBackoff:   25 * time.Millisecond,
		PrewarmStagger: -1,
		HashOnly:       hashOnly,
	})
	if err != nil {
		return res, err
	}
	defer router.Close()

	models := make([]string, nModels)
	for i := range models {
		models[i] = fmt.Sprintf("chn-%02d", i)
		p, err := clusterPipe(models[i])
		if err != nil {
			return res, err
		}
		zip, err := p.ExportBytes()
		if err != nil {
			return res, err
		}
		if _, err := router.Register(zip, serving.RegisterOptions{Name: models[i]}); err != nil {
			return res, err
		}
	}

	// Closed-loop Zipf traffic for the whole drill; the phase flag
	// routes each sample into the base or churn histogram. Phase 1 (the
	// join in flight: pre-warm compiles running in the background)
	// counts toward success but neither histogram — on a small host the
	// pre-warm's own CPU work interferes with serving latency, and that
	// interference is not the cold-start differential under test.
	var (
		phase         atomic.Int32 // 0 = base, 1 = join in flight, 2 = churn window
		total, failed atomic.Int64
		baseLat       = &metrics.Histogram{}
		churnLat      = &metrics.Histogram{}
		stop          = make(chan struct{})
		wg            sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			picker := workload.NewZipfPicker(nModels, 1.3, seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				model := models[picker.Pick()]
				t0 := time.Now()
				_, err := router.Predict(context.Background(), model, "a nice product", serving.PredictOptions{})
				total.Add(1)
				if err != nil {
					failed.Add(1)
					continue
				}
				switch phase.Load() {
				case 0:
					baseLat.Record(time.Since(t0))
				case 2:
					churnLat.Record(time.Since(t0))
				}
			}
		}(int64(w) + 7)
	}

	time.Sleep(warmup)

	// Leave: the owner's listener dies first (crash, not drain), then
	// the operator removes it. Warm-aware mode pre-warms the owners the
	// shrink promotes; hash-only leaves them empty, so every request
	// that ring-orders onto one pays 404 + backoff + failover — forever.
	nodes[2].srv.Close()
	if err := router.RemoveMember("node2"); err != nil {
		close(stop)
		wg.Wait()
		return res, err
	}
	time.Sleep(settle)

	// Join: warm-aware pre-warms the new node's share BEFORE the ring
	// swap (AddMember returns only after both); hash-only swaps onto an
	// empty node immediately. The churn measurement window opens when
	// AddMember returns — the moment traffic is actually on the new
	// ring, which is where the two modes diverge: warm-aware shifted
	// onto warm replicas, hash-only onto an empty owner that 404s every
	// request hashing to it into a backoff + failover.
	joined, err := newChurnNode(service)
	if err != nil {
		close(stop)
		wg.Wait()
		return res, err
	}
	defer joined.close()
	phase.Store(1)
	if err := router.AddMember("node3", joined.srv.URL); err != nil {
		close(stop)
		wg.Wait()
		return res, err
	}
	phase.Store(2)
	st0 := router.Stats().Cluster
	time.Sleep(env.LoadWindow)

	close(stop)
	wg.Wait()
	st := router.Stats().Cluster
	res.Total = int(total.Load())
	res.Failed = int(failed.Load())
	res.BaseP99 = baseLat.Percentile(99)
	res.ChurnP99 = churnLat.Percentile(99)
	res.Prewarms = st.Prewarms
	res.PrewarmErrs = st.PrewarmErrs
	res.Rebalances = st.Rebalances
	res.WarmRouted = st.WarmRouted
	res.ColdRouted = st.ColdRouted - st0.ColdRouted
	res.Failovers = st.Failovers - st0.Failovers
	res.Retries = st.Retries - st0.Retries
	res.JoinedColdLoad = joined.mgr.LStats().ColdLoads
	return res, nil
}

// runChurnExp runs the drill in both modes and hard-asserts counted
// verdicts on the mechanism. Warm-aware keeps success >= 99% through
// kill + re-add, pre-warms during the join, and in the churn window
// routes no request to a replica it knows is cold and fails none over to
// another replica. Hash-only never pre-warms, and its churn window shows
// the failovers that warm-aware avoids. The churn-window p99 ratio is
// printed, not asserted: the histogram's power-of-two buckets make it a
// step function, and on a loaded host scheduler noise moves it more than
// the mechanism does.
func runChurnExp(w io.Writer, env *Env) error {
	fmt.Fprintf(w, "churn drill: N=3 K=2 lifecycle nodes, Zipf(1.3) over 12 models; kill an owner,\n")
	fmt.Fprintf(w, "remove it, then join a fresh node mid-traffic (churn window: %v after the\n", env.LoadWindow)
	fmt.Fprintf(w, "join's ring swap; the join itself counts toward success only)\n")
	fmt.Fprintf(w, "%-12s %-8s %-9s %-10s %-10s %-9s %-11s %-10s %-8s %s\n",
		"mode", "total", "success", "base-p99", "churn-p99", "prewarms", "cold-routed", "failovers", "retries", "joined-cold-loads")

	report := func(mode string, r churnResult) {
		fmt.Fprintf(w, "%-12s %-8d %-9s %-10v %-10v %-9d %-11d %-10d %-8d %d\n",
			mode, r.Total, fmt.Sprintf("%.2f%%", 100*r.Success()),
			r.BaseP99.Round(time.Microsecond), r.ChurnP99.Round(time.Microsecond),
			r.Prewarms, r.ColdRouted, r.Failovers, r.Retries, r.JoinedColdLoad)
	}

	warm, err := runChurnMode(env, false)
	if err != nil {
		return err
	}
	report("warm-aware", warm)
	hash, err := runChurnMode(env, true)
	if err != nil {
		return err
	}
	report("hash-only", hash)
	fmt.Fprintf(w, "churn-window p99 hash-only/warm-aware: %.1fx (printed only)\n",
		float64(hash.ChurnP99)/float64(max(warm.ChurnP99, 1)))

	if s := warm.Success(); s < 0.99 {
		return fmt.Errorf("churn: warm-aware success %.2f%% < 99%% through kill+join", 100*s)
	}
	if warm.Prewarms == 0 || warm.Rebalances == 0 {
		return fmt.Errorf("churn: warm-aware mode never pre-warmed (prewarms=%d rebalances=%d)", warm.Prewarms, warm.Rebalances)
	}
	if warm.ColdRouted != 0 || warm.Failovers != 0 {
		return fmt.Errorf("churn: warm-aware churn window routed %d requests to a replica known cold and failed %d over",
			warm.ColdRouted, warm.Failovers)
	}
	if hash.Prewarms != 0 {
		return fmt.Errorf("churn: hash-only baseline pre-warmed %d times; the baseline must model the router without placement", hash.Prewarms)
	}
	if hash.Failovers+hash.Retries == 0 {
		return fmt.Errorf("churn: hash-only churn window had no failover or retry; the drill did not reach an empty owner")
	}
	fmt.Fprintf(w, "(warm-aware: the rebalancer replicates + warms the ownership delta BEFORE the\n")
	fmt.Fprintf(w, " ring swap, so churn traffic only ever lands on warm replicas; hash-only shifts\n")
	fmt.Fprintf(w, " traffic onto empty owners, and every such request pays 404 + backoff + failover)\n")
	return nil
}
