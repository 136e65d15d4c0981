package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"time"
)

// result is the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run of one workload.
type bench struct {
	sp      spec
	seed    int64
	seconds float64
	log     io.Writer
	work    string // scratch directory inside the checkout, removed at the end
	out     string // where trace files go

	cat     *catalog
	str     *stream
	nc      nodeConfig
	clients int   // predicting connections
	total   tally // attempted, failed and wrong answers over every phase
	assetsS float64

	contrasts []contrast // filled by a traced run
}

// prepare builds the model assets (from modelSeed) and the request
// stream (from the seed), lays the repository out on disk and fixes the
// node's configuration. None of this is part of setup_s.
func (b *bench) prepare() error {
	procs := goruntime.GOMAXPROCS(0)
	if procs > goruntime.NumCPU() {
		return fmt.Errorf("GOMAXPROCS %d exceeds the %d processors of this host: the numbers would measure oversubscription", procs, goruntime.NumCPU())
	}
	b.clients = procs
	if b.sp.churn {
		b.clients = max(1, procs-1) // the publisher is the last client
	}
	t0 := time.Now()
	var err error
	if b.cat, err = buildCatalog(b.sp.catalog); err != nil {
		return err
	}
	if b.str, err = buildStream(b.cat, b.sp, b.seed); err != nil {
		return err
	}
	// Every node starts with -lazy-load, so that set-up pays each
	// model's load on its first prediction and cold_p50_ms is a real cold
	// start on every workload; without a budget the whole catalog is
	// resident once set-up is over.
	b.nc = nodeConfig{dir: filepath.Join(b.work, "models"), cacheEntries: b.sp.cacheEntries, lazy: true}
	if err := writeRepo(b.nc.dir, b.cat); err != nil {
		return err
	}
	if b.sp.budgetShare > 0 {
		full, err := fullResidency(b.nc.dir)
		if err != nil {
			return err
		}
		b.nc.budget = int64(float64(full) * b.sp.budgetShare)
	}
	b.assetsS = time.Since(t0).Seconds()
	fmt.Fprintf(b.log, "env: nproc=%d GOMAXPROCS=%d %s commit=%s\n", goruntime.NumCPU(), procs, goruntime.Version(), commit())
	fmt.Fprintf(b.log, "run: workload=%s seed=%d seconds=%g rounds=%d open_rate=%g/s limit=%v clients=%d shares=%+v\n",
		b.sp.name, b.seed, b.seconds, rounds, b.sp.openRate, b.sp.limit, b.clients, b.sp.shares)
	fmt.Fprintf(b.log, "assets: %d models, %d pairs, %d jobs, budget=%d B, assets_s=%.3f\n",
		len(b.cat.models), len(b.str.pairs), len(b.str.jobs), b.nc.budget, b.assetsS)
	return nil
}

// commit names the commit a checkout was made from when it can; the
// driver's checkouts are not git repositories.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	if ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: "); ok {
		if head, err = os.ReadFile(filepath.Join(".git", ref)); err != nil {
			return ref
		}
	}
	return strings.TrimSpace(string(head))
}

func (b *bench) phaseDur(share float64) time.Duration {
	return time.Duration(b.seconds / rounds * share * float64(time.Second))
}

// note adds a phase's counts to the run's and prints its line.
func (b *bench) note(name string, t tally) {
	b.total.attempted += t.attempted
	b.total.failed += t.failed
	b.total.wrong += t.wrong
	fmt.Fprintf(b.log, "  %-9s attempted=%d failed=%d (non200=%d wrong=%d) samples=%d p50=%.1fus p99=%.1fus p99.9=%.1fus",
		name, t.attempted, t.failed, t.non200, t.wrong, len(t.lat),
		quantile(t.lat, 0.5)/1e3, quantile(t.lat, 0.99)/1e3, quantile(t.lat, 0.999)/1e3)
	if len(t.late) > 0 {
		fmt.Fprintf(b.log, " late_p99=%.1fus", quantile(t.late, 0.99)/1e3)
	}
	fmt.Fprintf(b.log, " in %.2fs\n", t.elapsed.Seconds())
}

// setUp constructs a fresh node from the on-disk repository and makes
// one prediction on every model over HTTP: the operator's view of a
// restart. It returns the node, the wall time, the heap the node added
// and the first-prediction latencies.
func (b *bench) setUp(tr *tracer) (n *node, seconds float64, heapMiB float64, cold []int64, err error) {
	before := liveHeap()
	t0 := time.Now()
	if n, err = startNode(b.nc, tr); err != nil {
		return nil, 0, 0, nil, err
	}
	cl, err := dial(n.addr)
	if err != nil {
		n.stop()
		return nil, 0, 0, nil, err
	}
	defer cl.close()
	var t tally
	for _, k := range b.str.sweep {
		req := b.str.reqs[k]
		t.attempted++
		t1 := time.Now()
		status, err := cl.do(req, 0, 0)
		l := time.Since(t1)
		if err != nil {
			n.stop()
			return nil, 0, 0, nil, fmt.Errorf("first prediction on %s: %w", b.cat.models[b.str.pairs[k].model].name, err)
		}
		if t.count(status, cl.vals, b.str.refs[k]) {
			t.lat = append(t.lat, int64(l))
		}
	}
	t.elapsed = time.Since(t0)
	heap := (float64(liveHeap()) - float64(before)) / (1 << 20)
	b.note("set-up", t)
	return n, t.elapsed.Seconds(), heap, t.lat, nil
}

// warmUp lets the pools and the heap goal settle, and the result cache
// fill when there is one, before anything is timed: users do not pay
// that on every request. It is not part of the measured seconds.
func (b *bench) warmUp(n *node, g *loadgen) {
	var t tally
	start := time.Now()
	for i := 0; i < 6; i++ {
		t.add(g.phase(b.phaseDur(0.1), 0, 0, false))
		if i > 0 && n.fe.CacheStats().Entries >= b.sp.cacheEntries {
			break
		}
	}
	t.elapsed = time.Since(start)
	b.note("warm-up", t)
}

// endToEnd measures what users of a node see. Every run takes all four
// views — restart (operator), online HTTP (client), offline batch
// (batch caller), publish (model publisher) — on the workload's
// catalog and inputs; the workload's shares decide where the time goes.
func (b *bench) endToEnd() (map[string]float64, error) {
	// The set-ups are spread over the run (before rounds 1, 3 and 5), so
	// that a noisy spell of the host does not land on all of them. The
	// first node serves the rounds; the others are stopped at once.
	var setupS, heapMB, coldM []float64
	setUp := func() (*node, error) {
		n, s, h, cold, err := b.setUp(nil)
		if err != nil {
			return nil, err
		}
		setupS, heapMB, coldM = append(setupS, s), append(heapMB, h), append(coldM, quantile(cold, 0.5)/1e6)
		return n, nil
	}
	n, err := setUp()
	if err != nil {
		return nil, err
	}
	defer n.stop()

	g, err := newLoadgen(n.addr, b.str, b.clients, nil)
	if err != nil {
		return nil, err
	}
	defer g.close()
	pub := newPublisher(n.addr, b.cat, b.str)
	defer pub.close()

	b.warmUp(n, g)

	sh := b.sp.shares
	per := map[string][]float64{}
	add := func(name string, v float64) { per[name] = append(per[name], v) }
	jobs := 0
	for r := 0; r < rounds; r++ {
		if r > 0 && r%(rounds/setups) == 0 {
			extra, err := setUp()
			if err != nil {
				return nil, err
			}
			extra.stop()
		}
		fmt.Fprintf(b.log, "round %d\n", r+1)
		var churned chan tally
		if b.sp.churn {
			churned = make(chan tally, 1)
			go func() { churned <- pub.run(b.phaseDur(sh.closed+sh.open), publishHz, b.log) }()
		}
		closed := g.phase(b.phaseDur(sh.closed), 0, 0, false)
		b.note("closed", closed)
		open := g.phase(b.phaseDur(sh.open), b.sp.openRate, b.sp.limit, false)
		b.note("open", open)
		var published tally
		if b.sp.churn {
			published = <-churned
		}
		batch := batchPhase(context.Background(), n.mgr, b.cat, b.str, b.phaseDur(sh.batch), jobs)
		jobs += len(batch.lat)
		b.note("batch", batch)
		if !b.sp.churn {
			published = pub.run(b.phaseDur(sh.publish), 0, b.log)
		}
		b.note("publish", published)

		add("capacity_rps", ratio(float64(closed.ok), closed.elapsed.Seconds()))
		add("p50_us", quantile(open.lat, 0.5)/1e3)
		add("slo_ok_share", ratio(float64(open.inLimit), float64(open.attempted)))
		add("batch_rec_per_s", ratio(float64(batch.ok), batch.elapsed.Seconds()))
		add("batch_p50_ms", quantile(batch.lat, 0.5)/1e6)
		add("publish_p50_ms", quantile(published.lat, 0.5)/1e6)
	}
	per["setup_s"], per["heap_mb"], per["cold_p50_ms"] = setupS, heapMB, coldM

	values := map[string]float64{}
	fmt.Fprintf(b.log, "%-16s %14s %-6s  per round\n", "end-to-end", "value", "unit")
	for _, m := range endToEnd {
		switch m.name {
		case "setup_s", "heap_mb", "cold_p50_ms":
			values[m.name] = median(per[m.name])
		default:
			values[m.name] = quietQuartile(per[m.name], higherIsBetter[m.name])
		}
		fmt.Fprintf(b.log, "%-16s %14.4f %-6s  %.4f\n", m.name, values[m.name], m.unit, per[m.name])
	}
	return values, nil
}
