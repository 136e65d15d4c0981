package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pretzel/internal/frontend"
	"pretzel/internal/pipeline"
	"pretzel/internal/runtime"
	"pretzel/internal/serving"
)

// Config parameterizes a Router.
type Config struct {
	// Replication is the placement factor K: each model lives on K of
	// the N nodes (0 = 2, clamped to the node count). K=1 is pure
	// sharding; K=N replicates everywhere (the black-box default the
	// placement exists to avoid).
	Replication int
	// VNodes is the consistent-hash ring's virtual-node count per
	// member (0 = DefaultVNodes).
	VNodes int
	// ProbeInterval is the health-check period (0 = 500ms).
	ProbeInterval time.Duration
	// BreakerThreshold consecutive node-level failures open a node's
	// circuit (0 = 3); BreakerCooldown is how long it stays open
	// (0 = 2s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// ForwardTimeout bounds one proxied prediction attempt so a
	// blackholed node costs a failover, not a hung request (0 = 30s; a
	// sooner caller deadline on the context still wins).
	ForwardTimeout time.Duration
	// OpTimeout bounds catalog and lifecycle calls to one node
	// (0 = 5s).
	OpTimeout time.Duration
	// ResolveTTL caches successful model-reference resolutions so the
	// front end's cache-key lookup does not cost a remote catalog read
	// per prediction (0 = 1s; label moves through THIS router
	// invalidate immediately, moves through another router converge
	// within the TTL).
	ResolveTTL time.Duration
	// RetryBudget bounds the total forward attempts one prediction may
	// spend across replicas (0 = 3; 1 disables retries). Breaker-open
	// owners are skipped without burning budget, so the budget is spent
	// on nodes that actually answered — badly.
	RetryBudget int
	// RetryBackoff is the base of the jittered exponential backoff
	// slept between attempts (0 = 5ms), capped at RetryBackoffMax
	// (0 = 250ms) and always by the request deadline: a retry that
	// cannot fit its backoff inside the deadline fails with
	// ErrDeadlineExceeded instead of sleeping past it.
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration
	// HedgeDelay, when > 0, arms hedged predictions: if the primary
	// replica has not answered after this delay, a backup request
	// fires to the next allowed replica and the first response wins
	// (the loser is canceled, its outcome never feeds the breakers).
	// Tail-latency insurance: set it near the fault-free p99.
	HedgeDelay time.Duration
	// WarmthInterval is the warmth-map poll period: each member's
	// lifecycle state (GET /models) and residency-vs-budget (/statz)
	// feed placement scoring (0 = 1s; negative disables the poll loop —
	// placement degrades to health + hash order).
	WarmthInterval time.Duration
	// HashOnly disables the placement plane: owners are tried in pure
	// ring order (health still reorders) and membership changes do NOT
	// pre-warm — the pre-placement router, kept as the baseline the
	// churn experiment measures against. The warmth map keeps polling
	// for observability, so both modes report the same counters.
	HashOnly bool
	// ProbeFailures is the health-probe hysteresis: a member is marked
	// down only after this many CONSECUTIVE failed probe rounds, so one
	// slow probe does not flap routing or trigger a rebalance (0 = 2;
	// 1 disables damping).
	ProbeFailures int
	// PrewarmConcurrency caps concurrent pre-warm loads during a
	// rebalance (0 = 2); PrewarmStagger is slept between launches so a
	// membership change warms the fleet gradually instead of stampeding
	// every disk at once (0 = 25ms; negative disables the stagger).
	PrewarmConcurrency int
	PrewarmStagger     time.Duration
	// Client is the HTTP client used for proxying and probes (nil = a
	// client with pooled connections and no global timeout — request
	// bounds come from the per-call timeouts above).
	Client *http.Client
}

// Router is the cluster serving engine: it implements serving.Engine
// by proxying every operation to the owner nodes the consistent-hash
// ring places a model on. Failures at the node level (connection
// errors, 5xx, shed 429s) fail over to the next replica and feed the
// node's circuit breaker; caller-level failures (bad input, expired
// deadline) return immediately. Remote HTTP statuses are mapped back
// to the runtime's typed sentinels, so a front end over a Router is
// indistinguishable from one over a local runtime.
type Router struct {
	cfg Config

	reg  *registry
	mu   sync.RWMutex // guards ring (static today, dynamic tomorrow)
	ring *Ring

	// resolved caches successful reference resolutions for ResolveTTL.
	resolveMu sync.Mutex
	resolved  map[string]resolveEntry

	forwards  atomic.Uint64
	failovers atomic.Uint64
	retries   atomic.Uint64
	hedges    atomic.Uint64
	hedgeWins atomic.Uint64

	// Placement-plane counters: predicts routed to known-warm vs
	// known-cold replicas, membership changes absorbed, and pre-warm
	// load outcomes.
	warmRouted  atomic.Uint64
	coldRouted  atomic.Uint64
	rebalances  atomic.Uint64
	prewarms    atomic.Uint64
	prewarmErrs atomic.Uint64

	// warmthStop ends the warmth poll loop; bg tracks it plus the
	// rebalancer's background pre-warm goroutines so Close leaves zero
	// goroutines behind.
	warmthStop chan struct{}
	bg         sync.WaitGroup

	closed atomic.Bool
}

// resolveEntry is one cached reference resolution.
type resolveEntry struct {
	name    string
	version int
	expires time.Time
}

var _ serving.Engine = (*Router)(nil)

// NewRouter builds a routing engine over a static member set.
func NewRouter(members []Member, cfg Config) (*Router, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: no members")
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 2
	}
	// Replication is deliberately NOT clamped to the initial member
	// count: membership is dynamic, and Owners clamps per-lookup.
	if cfg.ForwardTimeout <= 0 {
		cfg.ForwardTimeout = 30 * time.Second
	}
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = 5 * time.Second
	}
	if cfg.ResolveTTL <= 0 {
		cfg.ResolveTTL = time.Second
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = 3
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 5 * time.Millisecond
	}
	if cfg.RetryBackoffMax <= 0 {
		cfg.RetryBackoffMax = 250 * time.Millisecond
	}
	if cfg.WarmthInterval == 0 {
		cfg.WarmthInterval = time.Second
	}
	if cfg.PrewarmConcurrency <= 0 {
		cfg.PrewarmConcurrency = 2
	}
	if cfg.PrewarmStagger == 0 {
		cfg.PrewarmStagger = 25 * time.Millisecond
	}
	if cfg.Client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = 128
		cfg.Client = &http.Client{Transport: tr}
	}
	reg, err := newRegistry(members, cfg.Client, cfg.ProbeInterval, cfg.ProbeFailures, cfg.BreakerThreshold, cfg.BreakerCooldown)
	if err != nil {
		return nil, err
	}
	ring := NewRing(cfg.VNodes)
	for _, m := range reg.all() {
		ring.Add(m.ID)
	}
	rt := &Router{
		cfg:        cfg,
		reg:        reg,
		ring:       ring,
		resolved:   make(map[string]resolveEntry),
		warmthStop: make(chan struct{}),
	}
	// Wire the down-callback before the probe loop starts: a member that
	// fails its first probes must still trigger co-owner pre-warming.
	reg.onDown = rt.onMemberDown
	reg.start()
	if cfg.WarmthInterval > 0 {
		rt.bg.Add(1)
		go rt.warmthLoop()
	}
	return rt, nil
}

// Owners returns the member IDs owning a model reference, primary
// first (exported for placement-aware tooling and tests).
func (r *Router) Owners(ref string) []string {
	name, _ := runtime.SplitRef(ref)
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ring.Owners(name, r.cfg.Replication)
}

// owners resolves the owner member states for a model reference.
func (r *Router) owners(ref string) []*memberState {
	ids := r.Owners(ref)
	out := make([]*memberState, 0, len(ids))
	for _, id := range ids {
		if m := r.reg.get(id); m != nil {
			out = append(out, m)
		}
	}
	return out
}

// nodeErr is a retryable failure: the request may succeed on another
// replica. fault marks failures that indict the node itself (transport
// errors, 5xx crashes) and feed its circuit breaker; a 404 (replica
// without the model) or a deliberate 429/503 shed is retryable but
// NOT a fault — junk model names and overload must never open the
// breakers of healthy nodes.
type nodeErr struct {
	err   error
	fault bool
}

func (e nodeErr) Error() string { return e.err.Error() }
func (e nodeErr) Unwrap() error { return e.err }

// mapRemoteStatus folds a node's HTTP status back into the typed
// sentinels — the "local admission mapping" that keeps the seam's
// error contract transport-free. Retryable failures come back wrapped
// in nodeErr; caller-level failures (spent deadline, bad input) are
// final.
func mapRemoteStatus(code int, msg string) error {
	switch code {
	case http.StatusNotFound:
		// The replica may simply not hold the model (registration
		// raced, partial placement): another owner might.
		return nodeErr{err: fmt.Errorf("%w: %s", runtime.ErrModelNotFound, msg)}
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		// Shed or draining node: deliberate, the node is doing its job.
		return nodeErr{err: fmt.Errorf("%w: %s", runtime.ErrOverloaded, msg)}
	case http.StatusGatewayTimeout:
		// The request's budget is spent; retrying cannot help.
		return fmt.Errorf("%w: %s", runtime.ErrDeadlineExceeded, msg)
	case http.StatusBadRequest:
		return fmt.Errorf("%w: %s", runtime.ErrInvalidInput, msg)
	default:
		return nodeErr{err: fmt.Errorf("cluster: node status %d: %s", code, msg), fault: true}
	}
}

// finalErr shapes the error returned after every replica failed. A
// typed sentinel from the last replica passes through; pure transport
// failures collapse into ErrOverloaded (the caller should back off and
// retry — by then the health checker has usually rerouted).
func finalErr(model string, attempts int, last error) error {
	if last == nil {
		return fmt.Errorf("%w: all %d replicas of %q have open circuit breakers", runtime.ErrOverloaded, attempts, model)
	}
	for _, sentinel := range []error{
		runtime.ErrModelNotFound, runtime.ErrOverloaded, runtime.ErrDeadlineExceeded,
		runtime.ErrCanceled, runtime.ErrClosed, runtime.ErrInvalidInput,
	} {
		if errors.Is(last, sentinel) {
			return last
		}
	}
	return fmt.Errorf("%w: all %d replicas of %q failed: %v", runtime.ErrOverloaded, attempts, model, last)
}

// noteOutcome feeds one attempt's outcome to the member's circuit
// breaker. Cancellation is breaker-neutral: a hedge loser canceled
// because its sibling won (or a caller who walked away) says nothing
// about the node's health, so it must neither trip nor reset the
// breaker.
func (r *Router) noteOutcome(m *memberState, err error) {
	if err == nil {
		m.br.success()
		return
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, runtime.ErrCanceled) {
		return
	}
	var ne nodeErr
	if !errors.As(err, &ne) {
		// Caller-level failure (bad input, spent deadline): final for
		// the request, and not the node's fault.
		m.br.success()
		return
	}
	if ne.fault {
		m.br.failure(time.Now())
		m.failures.Add(1)
		m.lastErr.Store(ne.err.Error())
	} else {
		m.br.success()
	}
}

// backoff sleeps the jittered exponential backoff before retry
// `attempt` (1-based), capped at RetryBackoffMax and by the request
// deadline: when the sleep cannot fit, it fails fast with
// ErrDeadlineExceeded instead of burning the remaining budget asleep.
func (r *Router) backoff(ctx context.Context, attempt int, deadline time.Time) error {
	d := r.cfg.RetryBackoff << (attempt - 1)
	if d > r.cfg.RetryBackoffMax || d <= 0 {
		d = r.cfg.RetryBackoffMax
	}
	// Full jitter in [d/2, d): retrying replicas of one overloaded
	// model must not re-converge in lockstep.
	d = d/2 + time.Duration(rand.Int64N(int64(d/2)+1))
	if dl, ok := ctx.Deadline(); ok && (deadline.IsZero() || dl.Before(deadline)) {
		deadline = dl
	}
	if !deadline.IsZero() && time.Until(deadline) < d {
		return fmt.Errorf("%w: retry backoff (%v) exceeds remaining request budget", runtime.ErrDeadlineExceeded, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return serving.MapCtxErr(ctx.Err())
	}
}

// Predict proxies one prediction to the model's owners under a
// per-request retry budget: attempts rotate across replicas with
// jittered exponential backoff between them (failover is attempt #2 on
// the next replica), node-level failures feed the breakers, and
// caller-level failures return immediately. With HedgeDelay armed,
// each attempt may fire a backup request to the next allowed replica
// when the primary is slow — first response wins, the loser is
// canceled.
func (r *Router) Predict(ctx context.Context, model, input string, opts serving.PredictOptions) ([]float32, error) {
	if r.closed.Load() {
		return nil, runtime.ErrClosed
	}
	owners := r.owners(model)
	if len(owners) == 0 {
		return nil, fmt.Errorf("%w: no cluster members", serving.ErrNotReady)
	}
	name, _ := runtime.SplitRef(model)
	owners = r.routeOrder(name, owners)
	// next rotates through the route order so consecutive attempts (and
	// the hedge backup) land on different replicas whenever possible.
	next := 0
	pick := func() *memberState {
		for i := 0; i < len(owners); i++ {
			m := owners[(next+i)%len(owners)]
			if m.br.allow(time.Now()) {
				next = (next + i + 1) % len(owners)
				return m
			}
		}
		return nil
	}
	var (
		lastErr  error
		prev     *memberState
		attempts int
	)
	for attempts = 0; attempts < r.cfg.RetryBudget; attempts++ {
		if err := ctx.Err(); err != nil {
			return nil, serving.MapCtxErr(err)
		}
		m := pick()
		if m == nil {
			break
		}
		if attempts == 0 {
			r.noteRouteWarmth(m, name)
		}
		if attempts > 0 {
			r.retries.Add(1)
			if m != prev {
				r.failovers.Add(1)
			}
			if err := r.backoff(ctx, attempts, opts.Deadline); err != nil {
				if lastErr != nil {
					return nil, fmt.Errorf("%w (last replica error: %v)", err, lastErr)
				}
				return nil, err
			}
		}
		var backup *memberState
		if r.cfg.HedgeDelay > 0 && len(owners) > 1 {
			if b := pick(); b != nil && b != m {
				backup = b
			}
		}
		prev = m
		pred, err := r.attemptHedged(ctx, m, backup, model, input, opts)
		if err == nil {
			return pred, nil
		}
		var ne nodeErr
		if !errors.As(err, &ne) {
			return nil, err
		}
		lastErr = ne.err
	}
	return nil, finalErr(model, attempts, lastErr)
}

// attemptHedged runs one attempt: the primary forward, plus — when a
// backup replica is available and the primary has not answered within
// HedgeDelay — a hedged backup forward. The first success wins and
// cancels the other; each in-flight forward does its own breaker
// bookkeeping (cancellation is breaker-neutral, see noteOutcome). A
// final (caller-level) error from either side wins over waiting.
func (r *Router) attemptHedged(ctx context.Context, primary, backup *memberState, model, input string, opts serving.PredictOptions) ([]float32, error) {
	if backup == nil || r.cfg.HedgeDelay <= 0 {
		pred, err := r.forwardPredict(ctx, primary, model, input, opts)
		r.noteOutcome(primary, err)
		return pred, err
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		pred   []float32
		err    error
		hedged bool
	}
	// Buffered to the maximum number of forwards: the loser's goroutine
	// must be able to deliver (and do its breaker bookkeeping) after
	// this function returned.
	ch := make(chan result, 2)
	launch := func(m *memberState, hedged bool) {
		pred, err := r.forwardPredict(hctx, m, model, input, opts)
		r.noteOutcome(m, err)
		ch <- result{pred: pred, err: err, hedged: hedged}
	}
	go launch(primary, false)
	timer := time.NewTimer(r.cfg.HedgeDelay)
	defer timer.Stop()
	inflight, hedgeFired := 1, false
	var lastErr error
	for {
		select {
		case <-timer.C:
			if !hedgeFired {
				hedgeFired = true
				inflight++
				r.hedges.Add(1)
				go launch(backup, true)
			}
		case res := <-ch:
			if res.err == nil {
				if res.hedged {
					r.hedgeWins.Add(1)
				}
				return res.pred, nil
			}
			var ne nodeErr
			if !errors.As(res.err, &ne) {
				// Caller-level: final — no point waiting on the sibling.
				return nil, res.err
			}
			lastErr = res.err
			inflight--
			if inflight == 0 {
				// Both sides failed — or the primary failed before the
				// hedge delay, in which case the failure goes straight
				// to the outer retry loop instead of waiting out the
				// timer.
				return nil, lastErr
			}
		}
	}
}

// PredictBatch proxies a flushed batch. The wire protocol is
// per-record, so records fan out concurrently to the same owner set;
// the first error fails the batch (matching the local engine's
// all-or-nothing batch contract).
func (r *Router) PredictBatch(ctx context.Context, model string, inputs []string, opts serving.PredictOptions) ([][]float32, error) {
	preds := make([][]float32, len(inputs))
	errs := make([]error, len(inputs))
	sem := make(chan struct{}, 16)
	var wg sync.WaitGroup
	for i, in := range inputs {
		wg.Add(1)
		go func(i int, in string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			preds[i], errs[i] = r.Predict(ctx, model, in, opts)
		}(i, in)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return preds, nil
}

// forwardPredict POSTs one /predict to a node and maps the outcome.
// Each attempt is bounded by ForwardTimeout (the caller's sooner
// context deadline wins), so a blackholed node costs one failover.
func (r *Router) forwardPredict(ctx context.Context, m *memberState, model, input string, opts serving.PredictOptions) ([]float32, error) {
	m.forwards.Add(1)
	r.forwards.Add(1)
	body := frontend.Request{Model: model, Input: input}
	if opts.Priority == runtime.PriorityHigh {
		body.Priority = "high"
	}
	if !opts.Deadline.IsZero() {
		body.DeadlineUnixNS = opts.Deadline.UnixNano()
	}
	raw, _ := json.Marshal(body)
	fctx, cancel := context.WithTimeout(ctx, r.cfg.ForwardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(fctx, http.MethodPost, m.Addr+"/predict", bytes.NewReader(raw))
	if err != nil {
		return nil, nodeErr{err: err, fault: true}
	}
	req.Header.Set("Content-Type", "application/json")
	// Propagate the remaining request budget as a relative duration —
	// clock-skew tolerant where an absolute timestamp is not. Each
	// retry or hedge recomputes it, so the budget a node sees shrinks
	// as the request ages.
	deadline := opts.Deadline
	if dl, ok := ctx.Deadline(); ok && (deadline.IsZero() || dl.Before(deadline)) {
		deadline = dl
	}
	if !deadline.IsZero() {
		req.Header.Set(frontend.DeadlineHeader, strconv.FormatInt(int64(time.Until(deadline)), 10))
	}
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			// The CALLER's context expired: final, not the node's fault.
			return nil, serving.MapCtxErr(ctxErr)
		}
		// Transport failure or forward timeout: the node's fault.
		return nil, nodeErr{err: fmt.Errorf("node %s: %w", m.ID, err), fault: true}
	}
	defer resp.Body.Close()
	var out frontend.Response
	if derr := json.NewDecoder(resp.Body).Decode(&out); derr != nil && resp.StatusCode == http.StatusOK {
		return nil, nodeErr{err: fmt.Errorf("node %s: decoding response: %w", m.ID, derr), fault: true}
	}
	if resp.StatusCode != http.StatusOK {
		return nil, mapRemoteStatus(resp.StatusCode, fmt.Sprintf("node %s: %s", m.ID, out.Error))
	}
	return out.Prediction, nil
}

// --- lifecycle (forwarded to owners) ---

// Register places a model on its K owner nodes. With no explicit
// version the primary assigns one and the replicas install the same
// version, so the replica set stays consistent. At least one replica
// must accept; partial placements are reported in the result's Nodes.
func (r *Router) Register(zip []byte, opts serving.RegisterOptions) (serving.RegisterResult, error) {
	if r.closed.Load() {
		return serving.RegisterResult{}, runtime.ErrClosed
	}
	name := opts.Name
	if name == "" {
		// Peek into the upload for the placement key (and fail garbage
		// early, before it travels the fleet).
		p, err := pipeline.ImportBytes(zip)
		if err != nil {
			return serving.RegisterResult{}, fmt.Errorf("%w: importing: %v", serving.ErrBadModel, err)
		}
		name, _ = runtime.SplitRef(p.Name)
	}
	owners := r.owners(name)
	if len(owners) == 0 {
		return serving.RegisterResult{}, fmt.Errorf("%w: no cluster members", serving.ErrNotReady)
	}
	var (
		result  serving.RegisterResult
		nodes   []string
		lastErr error
		version = opts.Version
	)
	for _, m := range owners {
		reg, err := r.forwardRegister(m, zip, name, version, opts.Label)
		if err != nil {
			lastErr = err
			m.lastErr.Store(err.Error())
			continue
		}
		if len(nodes) == 0 {
			result = reg
			// Pin the replicas to the version the primary assigned.
			version = reg.Version
		}
		nodes = append(nodes, m.ID)
	}
	if len(nodes) == 0 {
		return serving.RegisterResult{}, lastErr
	}
	r.invalidateResolved(name)
	result.Nodes = nodes
	return result, nil
}

// opDo runs one bounded management-plane request against a node: no
// node may hang a catalog or lifecycle call past OpTimeout.
func (r *Router) opDo(method, url, contentType string, body []byte) (*http.Response, error) {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.OpTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	// Read the (bounded) body inside the timeout and hand back a
	// replayable response. The bound matches the default upload limit:
	// zip exports travel through here during rebalances.
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	resp.Body.Close()
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	return resp, nil
}

func (r *Router) forwardRegister(m *memberState, zip []byte, name string, version int, label string) (serving.RegisterResult, error) {
	q := url.Values{}
	if name != "" {
		q.Set("name", name)
	}
	if version > 0 {
		q.Set("version", strconv.Itoa(version))
	}
	if label != "" {
		q.Set("label", label)
	}
	u := m.Addr + "/models"
	if enc := q.Encode(); enc != "" {
		u += "?" + enc
	}
	resp, err := r.opDo(http.MethodPost, u, "application/zip", zip)
	if err != nil {
		// Transport failure: the fleet is (partially) unreachable — a
		// retryable 503, never a bogus "conflict".
		return serving.RegisterResult{}, fmt.Errorf("%w: node %s: %v", serving.ErrNotReady, m.ID, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	switch resp.StatusCode {
	case http.StatusCreated:
		var reg serving.RegisterResult
		if err := json.Unmarshal(raw, &reg); err != nil {
			return serving.RegisterResult{}, fmt.Errorf("node %s: decoding register response: %w", m.ID, err)
		}
		return reg, nil
	case http.StatusBadRequest:
		return serving.RegisterResult{}, fmt.Errorf("%w: node %s: %s", serving.ErrBadModel, m.ID, bodyError(raw))
	default:
		// Conflicts (duplicate version) pass through untyped → HTTP 409.
		return serving.RegisterResult{}, fmt.Errorf("node %s: status %d: %s", m.ID, resp.StatusCode, bodyError(raw))
	}
}

func bodyError(raw []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(raw))
}

// Unregister removes a model reference fleet-wide. Every node is
// asked (membership may have changed since placement); missing-there
// is not an error as long as some node held it.
func (r *Router) Unregister(ref string) error {
	name, _ := runtime.SplitRef(ref)
	defer r.invalidateResolved(name)
	members := r.reg.all()
	// Concurrent fan-out: a fleet with hung nodes costs one OpTimeout,
	// not one per node.
	results := make([]error, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m *memberState) {
			defer wg.Done()
			resp, err := r.opDo(http.MethodDelete, m.Addr+"/models/"+url.PathEscape(ref), "", nil)
			if err != nil {
				results[i] = fmt.Errorf("node %s: %w", m.ID, err)
				return
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
			case http.StatusNotFound:
				// Not placed here: fine.
				results[i] = errNotPlaced
			default:
				results[i] = fmt.Errorf("node %s: status %d: %s", m.ID, resp.StatusCode, bodyError(raw))
			}
		}(i, m)
	}
	wg.Wait()
	removed := 0
	var lastErr error
	for _, err := range results {
		switch {
		case err == nil:
			removed++
		case errors.Is(err, errNotPlaced):
		default:
			lastErr = err
		}
	}
	if removed == 0 {
		if lastErr != nil {
			return lastErr
		}
		return fmt.Errorf("%w: %q on any node", runtime.ErrModelNotFound, ref)
	}
	return nil
}

// errNotPlaced marks a node that never held the reference (soft miss).
var errNotPlaced = errors.New("cluster: not placed on node")

// SetLabel moves a label on every replica holding the model.
func (r *Router) SetLabel(name, label string, version int) error {
	defer r.invalidateResolved(name)
	body, _ := json.Marshal(frontend.LabelRequest{Label: label, Version: version})
	owners := r.owners(name)
	results := make([]error, len(owners))
	var wg sync.WaitGroup
	for i, m := range owners {
		wg.Add(1)
		go func(i int, m *memberState) {
			defer wg.Done()
			resp, err := r.opDo(http.MethodPost, m.Addr+"/models/"+url.PathEscape(name)+"/labels", "application/json", body)
			if err != nil {
				results[i] = fmt.Errorf("node %s: %w", m.ID, err)
				return
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				results[i] = mapRemoteStatus(resp.StatusCode, fmt.Sprintf("node %s: %s", m.ID, bodyError(raw)))
			}
		}(i, m)
	}
	wg.Wait()
	moved := 0
	var lastErr error
	for _, err := range results {
		if err == nil {
			moved++
		} else {
			lastErr = err
		}
	}
	if moved == 0 {
		if lastErr != nil {
			return lastErr
		}
		return fmt.Errorf("%w: %q", runtime.ErrModelNotFound, name)
	}
	return nil
}

// --- catalog (aggregated across nodes) ---

// Models lists the fleet's models: the union over nodes, each model
// reported by the first replica that answered (per-replica load is
// visible through the node's own /statz).
func (r *Router) Models() []runtime.ModelInfo {
	seen := make(map[string]runtime.ModelInfo)
	for _, m := range r.reg.all() {
		if !m.healthy.Load() {
			continue
		}
		resp, err := r.opDo(http.MethodGet, m.Addr+"/models", "", nil)
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		var list frontend.ModelsResponse
		err = json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		if err != nil {
			continue
		}
		for _, mi := range list.Models {
			if _, dup := seen[mi.Name]; !dup {
				seen[mi.Name] = mi
			}
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]runtime.ModelInfo, 0, len(names))
	for _, n := range names {
		out = append(out, seen[n])
	}
	return out
}

// ModelInfo returns one model's white-box view from the first owner
// replica that answers.
func (r *Router) ModelInfo(name string) (runtime.ModelInfo, error) {
	var lastErr error
	for _, m := range r.routeOrder(name, r.owners(name)) {
		resp, err := r.opDo(http.MethodGet, m.Addr+"/models/"+url.PathEscape(name), "", nil)
		if err != nil {
			lastErr = fmt.Errorf("node %s: %w", m.ID, err)
			continue
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			lastErr = mapRemoteStatus(resp.StatusCode, fmt.Sprintf("node %s: %s", m.ID, bodyError(raw)))
			continue
		}
		var info runtime.ModelInfo
		if err := json.Unmarshal(raw, &info); err != nil {
			lastErr = err
			continue
		}
		return info, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("%w: %q", runtime.ErrModelNotFound, name)
	}
	return runtime.ModelInfo{}, lastErr
}

// invalidateResolved drops every cached resolution of one model name
// (lifecycle operations through this router take effect immediately;
// moves through another router converge within ResolveTTL).
func (r *Router) invalidateResolved(name string) {
	r.resolveMu.Lock()
	for ref := range r.resolved {
		if n, _ := runtime.SplitRef(ref); n == name {
			delete(r.resolved, ref)
		}
	}
	r.resolveMu.Unlock()
}

// Resolve mirrors the runtime's reference semantics against the
// owners' catalog view: bare names resolve through the "stable" label
// (or a single installed version), explicit versions and labels
// resolve directly, and nothing ever falls back to "latest".
// Successful resolutions are cached for ResolveTTL so the front end's
// per-request cache-key lookup does not cost a remote catalog read per
// prediction.
func (r *Router) Resolve(ref string) (string, int, error) {
	now := time.Now()
	r.resolveMu.Lock()
	if e, ok := r.resolved[ref]; ok && now.Before(e.expires) {
		r.resolveMu.Unlock()
		return e.name, e.version, nil
	}
	r.resolveMu.Unlock()
	name, version, err := r.resolveRemote(ref)
	if err != nil {
		return "", 0, err
	}
	r.resolveMu.Lock()
	r.resolved[ref] = resolveEntry{name: name, version: version, expires: now.Add(r.cfg.ResolveTTL)}
	r.resolveMu.Unlock()
	return name, version, nil
}

func (r *Router) resolveRemote(ref string) (string, int, error) {
	name, rest := runtime.SplitRef(ref)
	info, err := r.ModelInfo(name)
	if err != nil {
		return "", 0, err
	}
	installed := make(map[int]struct{}, len(info.Versions))
	for _, vi := range info.Versions {
		installed[vi.Version] = struct{}{}
	}
	v, err := runtime.ResolveVersion(name, rest, info.Labels, installed)
	if err != nil {
		return "", 0, err
	}
	return name, v, nil
}

// --- ops ---

// Stats snapshots the routing tier: placement configuration, global
// forwarding counters and every node's health, breaker and traffic.
func (r *Router) Stats() serving.Stats {
	now := time.Now()
	r.mu.RLock()
	vnodes := r.ring.VNodes()
	r.mu.RUnlock()
	cs := &serving.ClusterStats{
		Replication: r.cfg.Replication,
		VNodes:      vnodes,
		Forwards:    r.forwards.Load(),
		Failovers:   r.failovers.Load(),
		Retries:     r.retries.Load(),
		Hedges:      r.hedges.Load(),
		HedgeWins:   r.hedgeWins.Load(),
		WarmRouted:  r.warmRouted.Load(),
		ColdRouted:  r.coldRouted.Load(),
		Rebalances:  r.rebalances.Load(),
		Prewarms:    r.prewarms.Load(),
		PrewarmErrs: r.prewarmErrs.Load(),
	}
	members := r.reg.all()
	sort.Slice(members, func(i, j int) bool { return members[i].ID < members[j].ID })
	for _, m := range members {
		lastErr, _ := m.lastErr.Load().(string)
		ns := serving.NodeStats{
			ID:       m.ID,
			Addr:     m.Addr,
			Healthy:  m.healthy.Load(),
			Ready:    m.ready.Load(),
			Breaker:  m.br.state(now),
			Forwards: m.forwards.Load(),
			Failures: m.failures.Load(),
			LastErr:  lastErr,
		}
		if q, _ := m.quarantined.Load().(map[string]bool); len(q) > 0 {
			names := make([]string, 0, len(q))
			for name := range q {
				names = append(names, name)
			}
			sort.Strings(names)
			ns.Quarantined = names
		}
		if w := m.warmthSnapshot(); w != nil {
			ns.WarmModels = w.warm
			ns.ColdModels = w.cold
			ns.ResidentBytes = w.residentBytes
			ns.BudgetBytes = w.budgetBytes
			ns.ColdLoads = w.coldLoads
			ns.Saturated = w.saturated()
			cs.ResidentBytes += w.residentBytes
			cs.BudgetBytes += w.budgetBytes
			cs.ColdLoads += w.coldLoads
		}
		cs.Nodes = append(cs.Nodes, ns)
	}
	return serving.Stats{Kind: "router", Cluster: cs}
}

// Ready reports nil when at least one node is healthy and ready.
func (r *Router) Ready() error {
	if r.closed.Load() {
		return fmt.Errorf("%w: router closed", serving.ErrNotReady)
	}
	for _, m := range r.reg.all() {
		if m.healthy.Load() && m.ready.Load() {
			return nil
		}
	}
	return fmt.Errorf("%w: no healthy cluster node", serving.ErrNotReady)
}

// Close stops the health checker, the warmth poll and any background
// pre-warming. Nodes are not touched: the router is a stateless tier
// over them. Order matters: the registry closes before bg.Wait because
// onDown (which bg.Adds) runs inside registry-tracked probe goroutines.
func (r *Router) Close() error {
	if !r.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(r.warmthStop)
	r.reg.close()
	r.bg.Wait()
	r.cfg.Client.CloseIdleConnections()
	return nil
}
