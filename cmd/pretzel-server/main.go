// Command pretzel-server serves predictions over HTTP with a
// white-box management plane. The same binary runs in two modes:
//
// Node mode (default): opens a versioned on-disk model repository
// (zips exported by pretzel-train, laid out <name>/<version>/model.zip;
// legacy flat <name>.zip files are picked up as version 1) behind a
// lifecycle manager: models are admitted to RAM under -ram-budget,
// evicted back to disk LRU-first when it overflows, and cold-loaded on
// their first request. Uploads write through the repository, so a
// restarted node recovers its whole catalog from disk:
//
//	POST   /predict {"model":"sa-001","input":"a nice product","timeout_ms":50}
//	GET    /models                     models, labels, versions, lifecycle state
//	GET    /models/sa-001              per-stage latency/exec counters
//	POST   /models?name=sa-001&version=2   register an uploaded zip (persisted)
//	POST   /models/sa-001/labels       {"label":"stable","version":2}  hot swap
//	POST   /models/sa-001/pin          exempt from budget eviction
//	DELETE /models/sa-001@1            unregister one version (drains first)
//	GET    /statz                      pool / catalog / scheduler / cache /
//	                                   lifecycle (residency, cold-start) stats
//	GET    /healthz                    liveness
//	GET    /readyz                     readiness (runtime open, not saturated)
//
// Router mode (-router -nodes=host:a,host:b): serves the same API over
// a cluster routing engine — models are placed on K of N nodes by
// consistent hashing, predictions proxy to owner nodes with failover
// and circuit breaking, registrations fan out to the owner set.
//
// Both modes shut down gracefully on SIGINT/SIGTERM: the front end
// drains its batchers (buffered requests flush, new ones get 503), the
// HTTP server finishes in-flight requests, then the engine closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pretzel"
	"pretzel/internal/chaos"
	"pretzel/internal/cluster"
	"pretzel/internal/frontend"
	"pretzel/internal/lifecycle"
	"pretzel/internal/oven"
	"pretzel/internal/repo"
	"pretzel/internal/serving"
)

func main() {
	var (
		dir        = flag.String("models", "models", "model repository directory (node mode; missing = start empty)")
		addr       = flag.String("addr", ":8080", "listen address")
		executors  = flag.Int("executors", 8, "batch-engine executors")
		cache      = flag.Int("cache", 4096, "prediction cache entries (0 = off)")
		delay      = flag.Duration("batch-delay", 0, "adaptive batching delay bound (0 = request-response)")
		batchSLO   = flag.Duration("batch-slo", 0, "AIMD batch latency target (0 = fixed-size flush)")
		maxBatch   = flag.Int("max-batch", 0, "flushed batch size cap (0 = 256)")
		maxPending = flag.Int("max-pending", 0, "per-model buffer bound, excess shed as 429 (0 = unbounded)")
		inflight   = flag.Int("max-in-flight", 0, "global admission limit, excess shed as 429 (0 = unbounded)")
		reserved   = flag.Int("reserved-high-priority", 0, "in-flight slots reserved for priority=high traffic")
		perModel   = flag.Int("max-in-flight-per-model", 0, "per-model best-effort admission limit (0 = unbounded)")
		materalize = flag.Bool("materialize", false, "compile for sub-plan materialization")
		maxUpload  = flag.Int64("max-upload", 64<<20, "POST /models body limit in bytes")
		drainWait  = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget for draining batchers and in-flight requests")
		ramBudget  = flag.String("ram-budget", "0", "node mode: RAM budget for resident models, e.g. 512M or 2G (0 = unlimited)")
		repoPoll   = flag.Duration("repo-poll", 0, "node mode: rescan the model repository for externally published versions at this interval (0 = off)")
		lazyLoad   = flag.Bool("lazy-load", false, "node mode: skip the startup preload; every model cold-loads on its first request")

		router      = flag.Bool("router", false, "run as cluster router instead of serving node")
		nodes       = flag.String("nodes", "", "router mode: comma-separated node addresses (host:port or http://host:port)")
		replication = flag.Int("replication", 2, "router mode: placement factor K (each model on K of N nodes)")
		probeEvery  = flag.Duration("probe-interval", 500*time.Millisecond, "router mode: node health-check interval")
		hedgeDelay  = flag.Duration("hedge-delay", 0, "router mode: fire a backup request to the next replica after this delay (0 = off)")
		retryBudget = flag.Int("retry-budget", 0, "router mode: total forward attempts per prediction (0 = 3)")
		warmthEvery = flag.Duration("warmth-interval", 0, "router mode: warmth-map poll interval for warm-aware placement (0 = 1s, negative = off)")
		hashOnly    = flag.Bool("hash-only", false, "router mode: disable warm-aware placement, route in pure hash order")
		prewarm     = flag.Int("prewarm", 0, "router mode: concurrent pre-warm loads during a rebalance (0 = 2)")
		prewarmGap  = flag.Duration("prewarm-stagger", 0, "router mode: delay between pre-warm launches (0 = 25ms, negative = none)")
		probeFails  = flag.Int("probe-failures", 0, "router mode: consecutive failed probe rounds before a node is marked down (0 = 2)")

		chaosOn   = flag.Bool("chaos", false, "enable the /chaos fault-injection endpoints (deterministic chaos testing)")
		chaosSeed = flag.Int64("chaos-seed", 1, "seed for the chaos injector's fault decisions")
	)
	flag.Parse()

	var (
		eng   serving.Engine
		feCfg = frontend.Config{
			CacheEntries:   *cache,
			BatchDelay:     *delay,
			BatchSLO:       *batchSLO,
			MaxBatch:       *maxBatch,
			MaxPending:     *maxPending,
			MaxUploadBytes: *maxUpload,
		}
		descrip string
	)
	if *router {
		var members []cluster.Member
		for _, a := range strings.Split(*nodes, ",") {
			if a = strings.TrimSpace(a); a != "" {
				members = append(members, cluster.Member{Addr: a})
			}
		}
		if len(members) == 0 {
			log.Fatal("router mode needs -nodes=host:port,host:port,...")
		}
		r, err := cluster.NewRouter(members, cluster.Config{
			Replication:        *replication,
			ProbeInterval:      *probeEvery,
			HedgeDelay:         *hedgeDelay,
			RetryBudget:        *retryBudget,
			WarmthInterval:     *warmthEvery,
			HashOnly:           *hashOnly,
			PrewarmConcurrency: *prewarm,
			PrewarmStagger:     *prewarmGap,
			ProbeFailures:      *probeFails,
		})
		if err != nil {
			log.Fatal(err)
		}
		eng = r
		descrip = fmt.Sprintf("router over %d nodes (replication %d)", len(members), *replication)
	} else {
		budget, err := parseSize(*ramBudget)
		if err != nil {
			log.Fatalf("bad -ram-budget: %v", err)
		}
		local, n, err := buildNode(nodeConfig{
			dir:         *dir,
			executors:   *executors,
			inflight:    *inflight,
			reserved:    *reserved,
			perModel:    *perModel,
			materialize: *materalize,
			ramBudget:   budget,
			pollEvery:   *repoPoll,
			lazy:        *lazyLoad,
		})
		if err != nil {
			log.Fatal(err)
		}
		feCfg.CompileOptions = &local.opts
		eng = local.eng
		descrip = fmt.Sprintf("node serving %d models", n)
		if budget > 0 {
			descrip += fmt.Sprintf(" under a %s RAM budget", *ramBudget)
		}
	}
	if *chaosOn {
		eng = chaos.New(eng, *chaosSeed)
		descrip += fmt.Sprintf(", chaos armed (seed %d)", *chaosSeed)
	}

	fe := frontend.New(eng, feCfg)
	srv := &http.Server{Addr: *addr, Handler: fe}

	// Graceful shutdown: on SIGINT/SIGTERM stop taking new predictions
	// (503), flush every buffered batch, let in-flight HTTP requests
	// finish, then close the engine. Without this, killing the process
	// drops whole buffered batches on the floor.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		log.Printf("shutting down: draining batchers (budget %v)", *drainWait)
		dctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := fe.Drain(dctx); err != nil {
			log.Printf("drain: %v (buffered requests may be dropped)", err)
		}
		if err := srv.Shutdown(dctx); err != nil {
			log.Printf("http shutdown: %v", err)
		}
		_ = eng.Close()
	}()

	fmt.Printf("serving on %s as %s (management plane: /models, /statz, /healthz, /readyz)\n", *addr, descrip)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-done
	log.Print("shutdown complete")
}

// nodeParts bundles what node mode hands back to main.
type nodeParts struct {
	eng  *lifecycle.Manager
	opts oven.Options
}

// nodeConfig carries node mode's knobs into buildNode.
type nodeConfig struct {
	dir                                     string
	executors, inflight, reserved, perModel int
	materialize                             bool
	ramBudget                               int64
	pollEvery                               time.Duration
	lazy                                    bool
}

// buildNode opens the on-disk model repository (created empty if
// missing) behind a lifecycle manager over a fresh runtime: the
// manager preloads models up to the RAM budget (unless -lazy-load),
// cold-loads the rest on first request, and persists uploads so a
// restart recovers the catalog from disk.
func buildNode(nc nodeConfig) (*nodeParts, int, error) {
	objStore := pretzel.NewObjectStore()
	cfg := pretzel.RuntimeConfig{
		Executors:            nc.executors,
		MaxInFlight:          nc.inflight,
		ReservedHighPriority: nc.reserved,
		MaxInFlightPerModel:  nc.perModel,
	}
	if nc.materialize {
		cfg.MatCacheBytes = 256 << 20
	}
	rt := pretzel.NewRuntime(objStore, cfg)

	opts := oven.DefaultOptions()
	opts.Materialization = nc.materialize

	mr, err := repo.Open(nc.dir)
	if err != nil {
		rt.Close()
		return nil, 0, err
	}
	t0 := time.Now()
	mgr, err := lifecycle.New(serving.NewLocal(rt, &opts), mr, lifecycle.Config{
		RAMBudget:    nc.ramBudget,
		LazyLoad:     nc.lazy,
		PollInterval: nc.pollEvery,
		Compile:      &opts,
	})
	if err != nil {
		rt.Close()
		return nil, 0, err
	}
	ls := mgr.LStats()
	n := ls.Warm + ls.Cold + ls.Loading
	if n > 0 {
		st := objStore.Stats()
		fmt.Printf("model repository %s: %d models (%d warm, %d cold) in %v (object store: %d unique params, %d dedup hits)\n",
			nc.dir, n, ls.Warm, ls.Cold, time.Since(t0).Round(time.Millisecond), st.Unique, st.Hits)
	}
	return &nodeParts{eng: mgr, opts: opts}, n, nil
}

// parseSize parses a byte size with an optional K/M/G suffix ("512M",
// "2G", "65536").
func parseSize(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'k', 'K':
		mult, s = 1<<10, s[:len(s)-1]
	case 'm', 'M':
		mult, s = 1<<20, s[:len(s)-1]
	case 'g', 'G':
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%q is not a size", s)
	}
	if n < 0 {
		return 0, fmt.Errorf("size must be non-negative")
	}
	return n * mult, nil
}
