package bench

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pretzel/internal/cluster"
	"pretzel/internal/frontend"
	"pretzel/internal/metrics"
	"pretzel/internal/ml"
	"pretzel/internal/ops"
	"pretzel/internal/pipeline"
	"pretzel/internal/runtime"
	"pretzel/internal/schema"
	"pretzel/internal/serving"
	"pretzel/internal/store"
	"pretzel/internal/text"
)

// pacedEngine wraps a node's local engine with a fixed service time
// behind a one-slot gate: the node serves requests serially at
// 1/serviceTime requests per second, whatever the host machine is
// doing. Model compute on the tiny bench pipelines is microseconds, so
// without pacing an in-process "cluster" would bottleneck on the HTTP
// stack and the scaling curve would measure the test harness; pacing
// pins each node's capacity so the experiment isolates what the router
// adds — aggregate goodput across shards.
type pacedEngine struct {
	serving.Engine
	gate    chan struct{}
	service time.Duration
}

func newPacedEngine(inner serving.Engine, service time.Duration) *pacedEngine {
	return &pacedEngine{Engine: inner, gate: make(chan struct{}, 1), service: service}
}

func (p *pacedEngine) Predict(ctx context.Context, model, input string, opts serving.PredictOptions) ([]float32, error) {
	p.gate <- struct{}{}
	defer func() { <-p.gate }()
	time.Sleep(p.service)
	return p.Engine.Predict(ctx, model, input, opts)
}

// Unwrap lets serving.As reach the capabilities of the engine below: a
// paced node over a lifecycle manager still answers the rebalancer's
// pre-warm and zip-replication calls (the churn experiment needs both).
func (p *pacedEngine) Unwrap() serving.Engine { return p.Engine }

// clusterPipe builds one tiny SA pipeline for the cluster experiment.
func clusterPipe(name string) (*pipeline.Pipeline, error) {
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
	}, nil
}

// benchCluster is one in-process cluster: real runtimes behind real
// HTTP listeners, fronted by the routing engine.
type benchCluster struct {
	nodes  []*runtime.Runtime
	srvs   []*httptest.Server
	router *cluster.Router
	models []string
}

func (c *benchCluster) close() {
	c.router.Close()
	for _, s := range c.srvs {
		s.Close()
	}
	for _, rt := range c.nodes {
		rt.Close()
	}
}

// startCluster brings up n paced nodes and a router with placement
// factor k, then registers models through the router until every node
// owns at least one (at least minModels, placement is deterministic in
// the node IDs and model names).
func startCluster(n, k, minModels int, service time.Duration) (*benchCluster, error) {
	c, _, err := startClusterWith(n, k, minModels, service, cluster.Config{}, nil)
	return c, err
}

// startClusterWith is startCluster with two extension points: extra
// router configuration (hedging, retry budget) merged over the
// defaults, and a wrap hook that slots middleware — e.g. a chaos
// injector — between each node's paced engine and its frontend. The
// wrapped engines are returned in node order so callers can reach the
// middleware after startup.
func startClusterWith(n, k, minModels int, service time.Duration, extra cluster.Config, wrap func(node int, eng serving.Engine) serving.Engine) (*benchCluster, []serving.Engine, error) {
	c := &benchCluster{}
	engines := make([]serving.Engine, n)
	members := make([]cluster.Member, n)
	for i := 0; i < n; i++ {
		rt := runtime.New(store.New(), runtime.Config{Executors: 1})
		var eng serving.Engine = newPacedEngine(serving.NewLocal(rt, nil), service)
		if wrap != nil {
			eng = wrap(i, eng)
		}
		engines[i] = eng
		srv := httptest.NewServer(frontend.New(eng, frontend.Config{}))
		c.nodes = append(c.nodes, rt)
		c.srvs = append(c.srvs, srv)
		members[i] = cluster.Member{ID: fmt.Sprintf("node%d", i), Addr: srv.URL}
	}
	cfg := extra
	cfg.Replication = k
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 100 * time.Millisecond
	}
	router, err := cluster.NewRouter(members, cfg)
	if err != nil {
		c.close()
		return nil, nil, err
	}
	c.router = router

	covered := func() bool {
		owned := map[string]bool{}
		for _, m := range c.models {
			for _, o := range router.Owners(m) {
				owned[o] = true
			}
		}
		return len(owned) == n
	}
	for i := 0; len(c.models) < minModels || !covered(); i++ {
		if i >= 64 {
			c.close()
			return nil, nil, fmt.Errorf("cluster bench: placement never covered all %d nodes", n)
		}
		name := fmt.Sprintf("clu-%02d", i)
		p, err := clusterPipe(name)
		if err != nil {
			c.close()
			return nil, nil, err
		}
		zip, err := p.ExportBytes()
		if err != nil {
			c.close()
			return nil, nil, err
		}
		if _, err := router.Register(zip, serving.RegisterOptions{Name: name}); err != nil {
			c.close()
			return nil, nil, err
		}
		c.models = append(c.models, name)
	}
	return c, engines, nil
}

// clusterResult is one closed-loop run against a cluster.
type clusterResult struct {
	Nodes     int
	Models    int
	Completed int
	Failed    int
	Window    time.Duration
	Lat       *metrics.Histogram
	PerNode   map[string]uint64 // forwards per node
}

func (r clusterResult) Goodput() float64 { return float64(r.Completed) / r.Window.Seconds() }

// runClusterLoad drives closed-loop traffic through the router:
// workersPerModel dedicated workers per model keep every shard's queue
// non-empty, so aggregate goodput converges to the sum of the node
// service rates — the quantity sharding is supposed to scale.
func runClusterLoad(c *benchCluster, workersPerModel int, window time.Duration) clusterResult {
	res := clusterResult{Nodes: len(c.nodes), Models: len(c.models), Window: window, Lat: &metrics.Histogram{}}
	var completed, failed atomic.Int64
	stop := time.Now().Add(window)
	var wg sync.WaitGroup
	for _, model := range c.models {
		for w := 0; w < workersPerModel; w++ {
			wg.Add(1)
			go func(model string) {
				defer wg.Done()
				for time.Now().Before(stop) {
					t0 := time.Now()
					_, err := c.router.Predict(context.Background(), model, "a nice product", serving.PredictOptions{})
					if err != nil {
						failed.Add(1)
						continue
					}
					completed.Add(1)
					res.Lat.Record(time.Since(t0))
				}
			}(model)
		}
	}
	wg.Wait()
	res.Completed = int(completed.Load())
	res.Failed = int(failed.Load())
	res.PerNode = map[string]uint64{}
	for _, ns := range c.router.Stats().Cluster.Nodes {
		res.PerNode[ns.ID] = ns.Forwards
	}
	return res
}

// runClusterExp is the cluster scaling experiment: fixed per-node
// service capacity, closed-loop offered load, goodput and p99 against
// node count. Sharding (K=1) should scale aggregate goodput ~linearly
// in nodes while p99 falls (shorter per-shard queues); replication
// (K=2) trades a little of that for failover headroom.
func runClusterExp(w io.Writer, env *Env) error {
	const (
		service         = 2 * time.Millisecond // per-node capacity: 500 req/s
		workersPerModel = 2
		minModels       = 12
	)
	window := env.LoadWindow
	fmt.Fprintf(w, "per-node capacity %.0f req/s (service %v, serial), %d workers/model, window %v\n",
		float64(time.Second)/float64(service), service, workersPerModel, window)
	fmt.Fprintf(w, "%-10s %-6s %-8s %-9s %-8s %-10s %-10s %s\n",
		"cluster", "K", "models", "goodput", "failed", "p50", "p99", "per-node forwards")

	var single, tripled float64
	for _, cfg := range []struct{ n, k int }{{1, 1}, {2, 1}, {3, 1}, {3, 2}} {
		c, err := startCluster(cfg.n, cfg.k, minModels, service)
		if err != nil {
			return err
		}
		res := runClusterLoad(c, workersPerModel, window)
		perNode := ""
		for _, id := range sortedKeys(res.PerNode) {
			perNode += fmt.Sprintf("%s:%d ", id, res.PerNode[id])
		}
		fmt.Fprintf(w, "%-10s %-6d %-8d %-9.0f %-8d %-10v %-10v %s\n",
			fmt.Sprintf("%d-node", cfg.n), cfg.k, res.Models, res.Goodput(), res.Failed,
			res.Lat.Percentile(50).Round(time.Microsecond),
			res.Lat.Percentile(99).Round(time.Microsecond), perNode)
		if cfg.n == 1 && cfg.k == 1 {
			single = res.Goodput()
		}
		if cfg.n == 3 && cfg.k == 1 {
			tripled = res.Goodput()
		}
		c.close()
	}
	if single > 0 {
		fmt.Fprintf(w, "aggregate goodput 3-node/1-node: %.2fx\n", tripled/single)
	}
	fmt.Fprintf(w, "(models placed on K of N nodes by consistent hashing; the router proxies to\n")
	fmt.Fprintf(w, " owners with failover — sharding scales goodput, replication buys availability)\n")
	return nil
}

func sortedKeys(m map[string]uint64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
