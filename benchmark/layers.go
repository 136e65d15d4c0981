package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"time"

	"pretzel/internal/frontend"
	"pretzel/internal/oven"
	"pretzel/internal/pipeline"
	"pretzel/internal/plan"
	"pretzel/internal/repo"
	"pretzel/internal/runtime"
	"pretzel/internal/serving"
	"pretzel/internal/vector"
)

// perLayer lists the per-layer metrics in the order they are printed.
// A layer is a module of the repository; http is net/http plus the
// loopback socket and loadgen is the benchmark itself.
func perLayer() []named {
	ms := []named{
		{"loadgen.late_p99_us", "us"},
		{"loadgen.p99_us", "us"},
		{"loadgen.p999_us", "us"},
		{"loadgen.closed_p50_us", "us"},
		{"loadgen.closed_p99_us", "us"},
		{"loadgen.trace_overhead_us", "us"},
		{"http.self_p50_us", "us"},
		{"http.self_p99_us", "us"},
		{"frontend.self_p50_us", "us"},
		{"frontend.self_p99_us", "us"},
		{"frontend.allocs_per_req", "count"},
		{"frontend.alloc_bytes_per_req", "B"},
		{"frontend.cache_hit_ratio", "share"},
		{"frontend.non200", "count"},
		{"lifecycle.self_p50_us", "us"},
		{"lifecycle.cold_loads", "count"},
		{"lifecycle.evictions", "count"},
		{"lifecycle.cold_miss_ratio", "share"},
		{"lifecycle.resident_peak_ratio", "share"},
		{"repo.read_p50_us", "us"},
		{"repo.put_p50_ms", "ms"},
		{"pipeline.import_p50_us", "us"},
		{"oven.compile_p50_us", "us"},
		{"store.unique_params", "count"},
		{"store.dedup_hits", "count"},
		{"store.mem_bytes", "B"},
		{"store.bytes_saved", "B"},
		{"store.plan_unique_stages", "count"},
		{"store.plan_refs", "count"},
		{"serving.self_p50_us", "us"},
		{"runtime.self_p50_us", "us"},
		{"runtime.shed", "count"},
		{"sched.job_overhead_us", "us"},
		{"sched.executor_busy_share", "share"},
		{"sched.parallel_stage_share", "share"},
		{"sched.subtasks_per_parallel_stage", "count"},
		{"sched.jobs", "count"},
		{"plan.self_p50_us", "us"},
	}
	for _, l := range stageLabels {
		ms = append(ms, named{"plan.stage_ns_per_rec." + l, "ns"})
	}
	for _, l := range stageLabels {
		ms = append(ms, named{"plan.batch_stage_ns_per_rec." + l, "ns"})
	}
	for _, k := range opKinds {
		ms = append(ms, named{"ops.ns_per_rec." + k, "ns"})
	}
	return append(ms, named{"vector.rr_pool_hit_ratio", "share"}, named{"vector.batch_pool_hit_ratio", "share"})
}

// budgetRows are the rows of the latency budget, outermost first.
var budgetRows = []string{"http", "frontend", "lifecycle", "serving", "runtime", "plan", "ops"}

// contrast is one property that tells the workloads apart; the test
// asserts them on the commit that defines the benchmark.
type contrast struct {
	name   string
	ok     bool
	timing bool // depends on measured times, so needs phases of real length
	detail string
}

// counters is what the layers' own Stats() report at one moment.
type counters struct {
	at     time.Time
	eng    serving.Stats
	cache  frontend.CacheStats
	stages map[*plan.Stage]plan.StageStats
}

func stageLabel(s *plan.Stage) string {
	kind := s.Kernel().Kind()
	if kind == "generic" && len(s.Ops) > 0 {
		kind += "." + strings.ToLower(s.Ops[0].Info().Kind)
	}
	return kind
}

func (b *bench) snapshot(n *node) counters {
	c := counters{
		at:     time.Now(),
		eng:    n.mgr.Stats(),
		cache:  n.fe.CacheStats(),
		stages: map[*plan.Stage]plan.StageStats{},
	}
	for _, m := range b.cat.models {
		pl, err := n.rt.LookupPlan(m.name)
		if err != nil {
			continue // not resident
		}
		for _, s := range pl.Stages {
			c.stages[s] = s.Stats()
		}
	}
	return c
}

// stageDelta sums, per stage label, the time and records the stages
// gained between two snapshots. Stages that left the runtime in between
// (evicted or replaced) are not counted.
func stageDelta(before, after counters) (nanos, records map[string]float64, total float64) {
	nanos, records = map[string]float64{}, map[string]float64{}
	for s, a := range after.stages {
		p := before.stages[s]
		if a.TotalNanos < p.TotalNanos {
			continue
		}
		l := stageLabel(s)
		nanos[l] += float64(a.TotalNanos - p.TotalNanos)
		records[l] += float64(a.Records - p.Records)
		total += float64(a.TotalNanos - p.TotalNanos)
	}
	return
}

func us(ns float64) float64 { return ns / 1e3 }

// perLayer makes the traced run: one node with the benchmark's span
// recorders in place, the workload's primary view (HTTP, or offline
// jobs for batch-offline) once untraced and once traced, then the
// onion pass, the probes of the storage and compile layers, and the
// layers' own counters across the live phases.
func (b *bench) perLayer() (map[string]float64, error) {
	v := map[string]float64{}
	batchPrimary := b.sp.shares.batch > b.sp.shares.open
	liveDur := time.Duration(b.seconds * 0.3 * float64(time.Second))
	tr := newTracer(3 * (int(b.sp.openRate*liveDur.Seconds()) + 4096))

	n, _, _, _, err := b.setUp(tr)
	if err != nil {
		return nil, err
	}
	defer n.stop()
	g, err := newLoadgen(n.addr, b.str, b.clients, tr)
	if err != nil {
		return nil, err
	}
	defer g.close()
	if !batchPrimary {
		b.warmUp(n, g)
	}

	before := b.snapshot(n)
	var (
		requests  int
		jobWall   float64 // summed wall time of the offline jobs
		clientP50 float64 // of the traced phase, ns
		peak      float64
	)
	residency := func() {
		if b.nc.budget > 0 {
			peak = max(peak, float64(n.mgr.ResidentBytes())/float64(b.nc.budget))
		}
	}
	if batchPrimary {
		ctx := context.Background()
		plain := batchPhase(ctx, n.mgr, b.cat, b.str, liveDur, 0)
		b.note("batch", plain)
		tr.on.Store(true)
		traced := b.tracedBatch(n, tr, liveDur, len(plain.lat))
		tr.on.Store(false)
		b.note("batch+t", traced)
		for _, l := range append(append([]int64{}, plain.lat...), traced.lat...) {
			jobWall += float64(l)
		}
		requests = len(plain.lat) + len(traced.lat)
		clientP50 = quantile(traced.lat, 0.5)
		v["loadgen.trace_overhead_us"] = us(clientP50 - quantile(plain.lat, 0.5))
	} else {
		var churned chan tally
		pub := newPublisher(n.addr, b.cat, b.str)
		defer pub.close()
		if b.sp.churn {
			churned = make(chan tally, 1)
			go func() { churned <- pub.run(liveDur*5/2, publishHz, b.log) }()
		}
		closed := g.phase(liveDur/2, 0, 0, false)
		b.note("closed", closed)
		residency()
		plain := g.phase(liveDur, b.sp.openRate, b.sp.limit, false)
		b.note("open", plain)
		residency()
		tr.on.Store(true)
		traced := g.phase(liveDur, b.sp.openRate, b.sp.limit, true)
		tr.on.Store(false)
		b.note("open+t", traced)
		if b.sp.churn {
			b.note("publish", <-churned)
		}
		residency()
		requests = closed.attempted + plain.attempted + traced.attempted
		v["loadgen.late_p99_us"] = us(quantile(plain.late, 0.99))
		v["loadgen.p99_us"] = us(quantile(plain.lat, 0.99))
		v["loadgen.p999_us"] = us(quantile(plain.lat, 0.999))
		v["loadgen.closed_p50_us"] = us(quantile(closed.lat, 0.5))
		v["loadgen.closed_p99_us"] = us(quantile(closed.lat, 0.99))
		v["loadgen.trace_overhead_us"] = us(quantile(traced.lat, 0.5) - quantile(plain.lat, 0.5))
		v["frontend.non200"] = float64(closed.non200 + plain.non200 + traced.non200)
	}
	after := b.snapshot(n)

	// Live spans: what the client saw, and how much of it was outside
	// the handler (http) and outside the engine (frontend).
	client, handler, engine := tr.live()
	budget := map[string]float64{}
	if !batchPrimary {
		httpSelf, feSelf := make([]int64, len(client)), make([]int64, len(client))
		for i := range client {
			httpSelf[i] = max(0, client[i]-handler[i])
			feSelf[i] = max(0, handler[i]-engine[i])
		}
		clientP50 = quantile(client, 0.5)
		budget["http"], budget["frontend"] = quantile(httpSelf, 0.5), quantile(feSelf, 0.5)
		v["http.self_p50_us"], v["http.self_p99_us"] = us(budget["http"]), us(quantile(httpSelf, 0.99))
		v["frontend.self_p50_us"], v["frontend.self_p99_us"] = us(budget["frontend"]), us(quantile(feSelf, 0.99))
	}

	// The layers' own counters across the live phases.
	ls0, ls1 := before.eng.Lifecycle, after.eng.Lifecycle
	v["lifecycle.cold_loads"] = float64(ls1.ColdLoads - ls0.ColdLoads)
	v["lifecycle.evictions"] = float64(ls1.Evictions - ls0.Evictions)
	v["lifecycle.cold_miss_ratio"] = ratio(v["lifecycle.cold_loads"], float64(requests))
	v["lifecycle.resident_peak_ratio"] = peak
	hits, misses := float64(after.cache.Hits-before.cache.Hits), float64(after.cache.Misses-before.cache.Misses)
	v["frontend.cache_hit_ratio"] = ratio(hits, hits+misses)
	v["store.unique_params"] = float64(after.eng.ObjectStore.Unique)
	v["store.dedup_hits"] = float64(after.eng.ObjectStore.Hits)
	v["store.mem_bytes"] = float64(after.eng.ObjectStore.Bytes)
	v["store.bytes_saved"] = float64(after.eng.ObjectStore.BytesSaved)
	v["store.plan_unique_stages"] = float64(after.eng.PlanStore.Unique)
	v["store.plan_refs"] = float64(after.eng.PlanStore.Refs)
	v["runtime.shed"] = float64(after.eng.Admission.Shed - before.eng.Admission.Shed)
	rr0, rr1 := before.eng.RRPool, after.eng.RRPool
	v["vector.rr_pool_hit_ratio"] = ratio(float64(rr1.Hits-rr0.Hits), float64(rr1.Gets-rr0.Gets))
	bp0, bp1 := before.eng.BatchPool, after.eng.BatchPool
	v["vector.batch_pool_hit_ratio"] = ratio(float64(bp1.Hits-bp0.Hits), float64(bp1.Gets-bp0.Gets))
	sc0, sc1 := before.eng.Sched, after.eng.Sched
	v["sched.jobs"] = float64(sc1.Submitted - sc0.Submitted)
	var busy, events float64
	for i, u := range sc1.ExecutorUtil {
		if i < len(sc0.ExecutorUtil) {
			busy += float64(u.BusyNS - sc0.ExecutorUtil[i].BusyNS)
			events += float64(u.Events - sc0.ExecutorUtil[i].Events)
		}
	}
	v["sched.executor_busy_share"] = ratio(busy, float64(sc1.Executors)*float64(after.at.Sub(before.at)))
	v["sched.parallel_stage_share"] = ratio(float64(sc1.ParallelStages-sc0.ParallelStages), events)
	v["sched.subtasks_per_parallel_stage"] = ratio(float64(sc1.ParallelSubtasks-sc0.ParallelSubtasks), float64(sc1.ParallelStages-sc0.ParallelStages))
	nanos, records, stageTotal := stageDelta(before, after)
	family := "plan.stage_ns_per_rec."
	if batchPrimary {
		family = "plan.batch_stage_ns_per_rec."
		v["sched.job_overhead_us"] = us(max(0, ratio(jobWall-stageTotal, float64(requests))))
	}
	for l, ns := range nanos {
		v[family+l] = ratio(ns, records[l])
	}

	// Onion pass, then the storage and compile probes.
	var onion map[string]float64
	if batchPrimary {
		onion, err = b.onionBatch(n, v)
	} else {
		onion, err = b.onionHTTP(n, v)
	}
	if err != nil {
		return nil, err
	}
	// The budget splits the live engine span of the median request
	// between the engine's layers in proportion to their self times in
	// the onion pass, which runs alone on a quiet processor and is
	// faster than the same code under load. When the result cache
	// answers the median request that span is 0 and so are its rows.
	var onionSum float64
	for _, ns := range onion {
		onionSum += ns
	}
	for row, ns := range onion {
		budget[row] = quantile(engine, 0.5) * ratio(ns, onionSum)
	}
	if err := b.probeStorage(n, v); err != nil {
		return nil, err
	}

	path := filepath.Join(b.out, "trace-"+b.sp.name+".jsonl")
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(b.log, "trace: %d spans in %s (%d dropped)\n", len(tr.recorded()), path, tr.dropped.Load())

	b.printBudget(budget, clientP50)
	b.contrasts = b.checkContrasts(v, budget, clientP50)
	for _, c := range b.contrasts {
		fmt.Fprintf(b.log, "contrast %-5v %s: %s\n", c.ok, c.name, c.detail)
	}
	fmt.Fprintf(b.log, "%-44s %16s %s\n", "per-layer", "value", "unit")
	for _, m := range perLayer() {
		fmt.Fprintf(b.log, "%-44s %16.4f %s\n", m.name, v[m.name], m.unit)
	}
	return v, nil
}

// tracedBatch is batchPhase with a client span around each job and the
// trace id in the context the engine recorder reads.
func (b *bench) tracedBatch(n *node, tr *tracer, d time.Duration, first int) tally {
	var t tally
	eng := &tracedEngine{Engine: n.mgr, tr: tr}
	start := time.Now()
	for k := first; time.Since(start) < d; k++ {
		id := tr.newID()
		ctx := context.WithValue(context.Background(), traceKey{}, id)
		t0 := time.Now()
		one := batchOnce(ctx, eng, b.cat, b.str.jobs[k%len(b.str.jobs)])
		tr.record(spanClient, id, t0, time.Now(), batchSize)
		t.add(one)
	}
	t.elapsed = time.Since(start)
	return t
}

// memWriter is the in-memory http.ResponseWriter of the onion pass.
type memWriter struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (w *memWriter) Header() http.Header         { return w.h }
func (w *memWriter) WriteHeader(code int)        { w.code = code }
func (w *memWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

const onionSamples = 2000

// onionHTTP times sampled requests, one at a time on one goroutine,
// through each layer's public entry point in turn, outermost first:
// frontend.Server.ServeHTTP, lifecycle.Manager.Predict,
// serving.Local.Predict, runtime.Runtime.PredictRequest, plan.RunPlan,
// the stages' own Stats() and each operator's Transform on the
// unoptimized pipeline. A layer's self time is its call minus the call
// one layer in. It fills v and returns the budget rows in nanoseconds.
func (b *bench) onionHTTP(n *node, v map[string]float64) (map[string]float64, error) {
	ctx := context.Background()
	var (
		life, serv, rtime, plans, stages []int64
		in, out                          = vector.New(0), vector.New(0)
		ec                               = &plan.Exec{Pool: vector.NewPool()}
		w                                = &memWriter{h: http.Header{}}
		opNS, opN                        = map[string]float64{}, map[string]float64{}
		scratch                          = map[int][]*vector.Vector{}
	)
	// Allocation per request through the front door, measured around
	// ServeHTTP alone with the requests built beforehand.
	reqs := make([]*http.Request, onionSamples)
	for i := range reqs {
		k := b.str.order[i]
		r, err := http.NewRequest("POST", "/predict", bytes.NewReader(b.str.bodies[k]))
		if err != nil {
			return nil, err
		}
		reqs[i] = r
	}
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	for _, r := range reqs {
		w.body.Reset()
		n.fe.ServeHTTP(w, r)
	}
	goruntime.ReadMemStats(&m1)
	v["frontend.allocs_per_req"] = float64(m1.Mallocs-m0.Mallocs) / onionSamples
	v["frontend.alloc_bytes_per_req"] = float64(m1.TotalAlloc-m0.TotalAlloc) / onionSamples

	for i := 0; i < onionSamples; i++ {
		k := b.str.order[i]
		p := b.str.pairs[k]
		m := b.cat.models[p.model]
		input := b.str.inputs[m.class][p.input]

		// One untimed call first: it loads the model if it is cold and
		// brings this input's dictionary entries into the processor's
		// caches, so that the timed calls differ only by their layers.
		got, err := n.mgr.Predict(ctx, m.name, input, serving.PredictOptions{})
		t0 := time.Now()
		if err == nil {
			_, err = n.mgr.Predict(ctx, m.name, input, serving.PredictOptions{})
		}
		tM := time.Since(t0)
		if err != nil || !agrees(got, b.str.refs[k]) {
			return nil, fmt.Errorf("onion: lifecycle.Predict(%s): %v, answer %v want %v", m.name, err, got, b.str.refs[k])
		}
		t0 = time.Now()
		if _, err = n.local.Predict(ctx, m.name, input, serving.PredictOptions{}); err != nil {
			return nil, fmt.Errorf("onion: serving.Predict(%s): %w", m.name, err)
		}
		tL := time.Since(t0)
		in.SetText(input)
		t0 = time.Now()
		if err = n.rt.PredictRequest(runtime.Request{Ctx: ctx, Model: m.name, In: in, Out: out}); err != nil {
			return nil, fmt.Errorf("onion: runtime.PredictRequest(%s): %w", m.name, err)
		}
		tR := time.Since(t0)
		pl, err := n.rt.LookupPlan(m.name)
		if err != nil {
			return nil, fmt.Errorf("onion: LookupPlan(%s): %w", m.name, err)
		}
		var s0 uint64
		for _, s := range pl.Stages {
			s0 += s.Stats().TotalNanos
		}
		in.SetText(input)
		t0 = time.Now()
		if err = plan.RunPlan(pl, ec, in, out); err != nil {
			return nil, fmt.Errorf("onion: RunPlan(%s): %w", m.name, err)
		}
		tP := time.Since(t0)
		var s1 uint64
		for _, s := range pl.Stages {
			s1 += s.Stats().TotalNanos
		}
		life = append(life, max(0, int64(tM-tL)))
		serv = append(serv, max(0, int64(tL-tR)))
		rtime = append(rtime, max(0, int64(tR-tP)))
		plans = append(plans, max(0, int64(tP)-int64(s1-s0)))
		stages = append(stages, int64(s1-s0))
		if err := timeOps(m, input, scratch, opNS, opN); err != nil {
			return nil, err
		}
	}
	for k, ns := range opNS {
		v["ops.ns_per_rec."+k] = ns / opN[k]
	}
	rows := map[string]float64{
		"lifecycle": quantile(life, 0.5), "serving": quantile(serv, 0.5), "runtime": quantile(rtime, 0.5),
		"plan": quantile(plans, 0.5), "ops": quantile(stages, 0.5),
	}
	v["lifecycle.self_p50_us"], v["serving.self_p50_us"] = us(rows["lifecycle"]), us(rows["serving"])
	v["runtime.self_p50_us"], v["plan.self_p50_us"] = us(rows["runtime"]), us(rows["plan"])
	return rows, nil
}

// onionBatch is the onion pass of the offline view: whole jobs through
// lifecycle.Manager.PredictBatch, serving.Local.PredictBatch and
// runtime.Runtime.PredictRequestBatch, with the stages' Stats() around
// the last. Times are per job. There is no RunPlan on this path: what
// the runtime adds around the stages includes the scheduler.
func (b *bench) onionBatch(n *node, v map[string]float64) (map[string]float64, error) {
	ctx := context.Background()
	var (
		life, serv, rtime, stages []int64
		opNS, opN                 = map[string]float64{}, map[string]float64{}
		scratch                   = map[int][]*vector.Vector{}
	)
	ins, outs := make([]*vector.Vector, batchSize), make([]*vector.Vector, batchSize)
	for i := range ins {
		ins[i], outs[i] = vector.New(0), vector.New(0)
	}
	for _, j := range b.str.jobs {
		m := b.cat.models[j.model]
		_, err := n.mgr.PredictBatch(ctx, m.name, j.inputs, serving.PredictOptions{}) // untimed, as in onionHTTP
		t0 := time.Now()
		if err == nil {
			_, err = n.mgr.PredictBatch(ctx, m.name, j.inputs, serving.PredictOptions{})
		}
		if err != nil {
			return nil, fmt.Errorf("onion: lifecycle.PredictBatch(%s): %w", m.name, err)
		}
		tM := time.Since(t0)
		t0 = time.Now()
		if _, err := n.local.PredictBatch(ctx, m.name, j.inputs, serving.PredictOptions{}); err != nil {
			return nil, fmt.Errorf("onion: serving.PredictBatch(%s): %w", m.name, err)
		}
		tL := time.Since(t0)
		pl, err := n.rt.LookupPlan(m.name)
		if err != nil {
			return nil, fmt.Errorf("onion: LookupPlan(%s): %w", m.name, err)
		}
		for i, s := range j.inputs {
			ins[i].SetText(s)
		}
		var s0, s1 uint64
		for _, s := range pl.Stages {
			s0 += s.Stats().TotalNanos
		}
		t0 = time.Now()
		if err := n.rt.PredictRequestBatch(runtime.BatchRequest{Ctx: ctx, Model: m.name, Ins: ins, Outs: outs}); err != nil {
			return nil, fmt.Errorf("onion: runtime.PredictRequestBatch(%s): %w", m.name, err)
		}
		tR := time.Since(t0)
		for _, s := range pl.Stages {
			s1 += s.Stats().TotalNanos
		}
		life = append(life, max(0, int64(tM-tL)))
		serv = append(serv, max(0, int64(tL-tR)))
		rtime = append(rtime, max(0, int64(tR)-int64(s1-s0)))
		stages = append(stages, int64(s1-s0))
		for _, input := range j.inputs[:16] {
			if err := timeOps(m, input, scratch, opNS, opN); err != nil {
				return nil, err
			}
		}
	}
	for k, ns := range opNS {
		v["ops.ns_per_rec."+k] = ns / opN[k]
	}
	rows := map[string]float64{
		"lifecycle": quantile(life, 0.5), "serving": quantile(serv, 0.5),
		"runtime": quantile(rtime, 0.5), "ops": quantile(stages, 0.5),
	}
	v["lifecycle.self_p50_us"], v["serving.self_p50_us"] = us(rows["lifecycle"]), us(rows["serving"])
	v["runtime.self_p50_us"] = us(rows["runtime"])
	return rows, nil
}

// timeOps runs one input through the unoptimized pipeline operator by
// operator, timing each Transform: the per-operator table of the
// paper's Fig. 5.
func timeOps(m model, input string, scratch map[int][]*vector.Vector, ns, count map[string]float64) error {
	nodes := m.pipe.Nodes
	vs := scratch[len(nodes)]
	if vs == nil {
		vs = make([]*vector.Vector, len(nodes)+1)
		for i := range vs {
			vs[i] = vector.New(0)
		}
		scratch[len(nodes)] = vs
	}
	in := vs[len(nodes)]
	in.SetText(input)
	var ins [4]*vector.Vector
	for i, nd := range nodes {
		args := ins[:0]
		for _, src := range nd.Inputs {
			if src == pipeline.InputID {
				args = append(args, in)
			} else {
				args = append(args, vs[src])
			}
		}
		t0 := time.Now()
		err := nd.Op.Transform(args, vs[i])
		d := time.Since(t0)
		if err != nil {
			return fmt.Errorf("ops: %s node %d: %w", m.name, i, err)
		}
		kind := strings.ToLower(nd.Op.Info().Kind)
		ns[kind] += float64(d)
		count[kind]++
	}
	return nil
}

// probeStorage times the layers a load, a publish and a restart go
// through, one call at a time: repo.Read and repo.Put, pipeline
// import, and oven.Compile into the node's own stores (released again
// at once).
func (b *bench) probeStorage(n *node, v map[string]float64) error {
	rp, err := repo.Open(b.nc.dir)
	if err != nil {
		return err
	}
	scratch, err := repo.Open(filepath.Join(b.work, "put-probe"))
	if err != nil {
		return err
	}
	opts := oven.DefaultOptions()
	opts.Plans = n.rt.PlanStore()
	var read, put, imp, comp []int64
	for i, m := range b.cat.models {
		if i >= 64 {
			break
		}
		vs, err := rp.Versions(m.name)
		if err != nil || len(vs) == 0 {
			return fmt.Errorf("probe: versions of %s: %v", m.name, err)
		}
		t0 := time.Now()
		zip, err := rp.Read(m.name, vs[len(vs)-1].Version)
		read = append(read, int64(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("probe: %w", err)
		}
		t0 = time.Now()
		p, err := pipeline.ImportBytes(zip)
		imp = append(imp, int64(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("probe: importing %s: %w", m.name, err)
		}
		t0 = time.Now()
		pl, err := oven.Compile(p, n.rt.ObjectStore(), opts)
		comp = append(comp, int64(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("probe: compiling %s: %w", m.name, err)
		}
		oven.ReleasePlan(n.rt.ObjectStore(), opts.Plans, pl)
		if i < 16 {
			t0 = time.Now()
			_, err = scratch.Put(m.name, 0, zip)
			put = append(put, int64(time.Since(t0)))
			if err != nil {
				return fmt.Errorf("probe: %w", err)
			}
		}
	}
	v["repo.read_p50_us"] = us(quantile(read, 0.5))
	v["repo.put_p50_ms"] = quantile(put, 0.5) / 1e6
	v["pipeline.import_p50_us"] = us(quantile(imp, 0.5))
	v["oven.compile_p50_us"] = us(quantile(comp, 0.5))
	return nil
}

// printBudget prints the latency budget of the median request: the
// rows should add up to what the client saw.
func (b *bench) printBudget(budget map[string]float64, clientP50 float64) {
	fmt.Fprintln(b.log, "latency budget of the median request (job on batch-offline), us")
	var sum float64
	for _, row := range budgetRows {
		sum += budget[row]
		fmt.Fprintf(b.log, "  %-10s %10.1f  %5.1f%%\n", row, us(budget[row]), 100*ratio(budget[row], clientP50))
	}
	fmt.Fprintf(b.log, "  %-10s %10.1f  client p50 %.1f, gap %+.1f%%\n", "sum", us(sum), us(clientP50), 100*ratio(sum-clientP50, clientP50))
}

// checkContrasts evaluates what tells the workloads apart: each one
// must stress the layers it was chosen for and leave the others alone.
func (b *bench) checkContrasts(v, budget map[string]float64, clientP50 float64) []contrast {
	var cs []contrast
	add := func(name string, ok bool, format string, args ...any) {
		cs = append(cs, contrast{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
	}
	timed := func(name string, ok bool, format string, args ...any) {
		cs = append(cs, contrast{name: name, ok: ok, timing: true, detail: fmt.Sprintf(format, args...)})
	}
	var sum float64
	for _, row := range budgetRows {
		sum += budget[row]
	}
	gap := ratio(sum-clientP50, clientP50)
	timed("budget adds up", gap > -0.15 && gap < 0.15, "rows sum to %.1fus against client p50 %.1fus (%+.1f%%)", us(sum), us(clientP50), 100*gap)
	opsShare := ratio(budget["ops"], clientP50)
	doorShare := ratio(budget["http"]+budget["frontend"], clientP50)
	switch b.sp.name {
	case "sa-long":
		timed("ops dominate", opsShare >= 0.5, "ops are %.0f%% of client p50", 100*opsShare)
	case "mixed-short":
		timed("ops are minor", opsShare <= 0.25, "ops are %.0f%% of client p50", 100*opsShare)
		timed("front door dominates", doorShare >= 0.5, "http+frontend are %.0f%% of client p50", 100*doorShare)
	}
	if b.sp.shares.batch > b.sp.shares.open {
		add("scheduler used", v["sched.jobs"] > 0, "sched.jobs=%.0f", v["sched.jobs"])
	} else {
		add("scheduler idle", v["sched.jobs"] == 0, "sched.jobs=%.0f", v["sched.jobs"])
	}
	if b.sp.budgetShare > 0 {
		add("models churn", v["lifecycle.cold_loads"] > 0, "lifecycle.cold_loads=%.0f", v["lifecycle.cold_loads"])
		add("residency within budget", v["lifecycle.resident_peak_ratio"] <= 1, "resident/budget=%.2f after drain", v["lifecycle.resident_peak_ratio"])
	} else {
		add("no cold loads", v["lifecycle.cold_loads"] == 0, "lifecycle.cold_loads=%.0f", v["lifecycle.cold_loads"])
	}
	if b.sp.cacheEntries == 0 {
		add("result cache off", v["frontend.cache_hit_ratio"] == 0, "frontend.cache_hit_ratio=%.3f", v["frontend.cache_hit_ratio"])
	}
	add("nothing shed", v["runtime.shed"] == 0, "runtime.shed=%.0f", v["runtime.shed"])
	return cs
}
