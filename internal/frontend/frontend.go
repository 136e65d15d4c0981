// Package frontend implements the PRETZEL FrontEnd (§4.2, §4.3): an
// HTTP server over a serving.Engine with the two "external"
// optimizations other serving systems also apply — prediction-result
// caching (LRU) and adaptive micro-batching (requests buffered per
// model and flushed delay-bounded and size-capped, with the target
// batch size adapted by AIMD against a latency SLO) — plus the
// overload plane (per-model buffer bounds shedding excess load as HTTP
// 429 + Retry-After) and the white-box management plane: model listing
// with per-stage execution counters and latency percentiles, zip
// upload, label moves, deletion and server-wide /statz.
//
// The front end is transport-plumbing only: every predict, catalog and
// lifecycle call goes through the serving.Engine seam, so the same
// server binary fronts a local runtime (serving.Local) or a sharded
// cluster of remote nodes (cluster.Router) without change.
package frontend

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pretzel/internal/oven"
	"pretzel/internal/repo"
	"pretzel/internal/runtime"
	"pretzel/internal/serving"
)

// Config parameterizes a FrontEnd.
type Config struct {
	// CacheEntries bounds the prediction-result LRU (0 disables caching).
	CacheEntries int
	// BatchDelay is the adaptive batcher's delay bound: no buffered
	// request waits longer than this before its batch is flushed
	// (0 = request-response engine, no batching).
	BatchDelay time.Duration
	// MaxBatch caps one flushed batch (0 = 256). The AIMD target never
	// exceeds it.
	MaxBatch int
	// BatchSLO is the per-model batch latency target driving the AIMD
	// batch-size controller: flushes within the SLO grow the target
	// batch size additively, flushes over it halve the target. 0
	// disables adaptation (the target pins to MaxBatch, recovering the
	// classic fixed-window flush).
	BatchSLO time.Duration
	// MaxPending bounds each model's batching buffer: best-effort
	// requests arriving past the bound are shed with
	// runtime.ErrOverloaded (HTTP 429 + Retry-After) instead of
	// queueing without bound (0 = unbounded).
	MaxPending int
	// CompileOptions configure compilation of uploaded models when the
	// front end is built over a local runtime (nil = oven.DefaultOptions;
	// consumed by serving.NewLocal — routing engines compile nothing).
	CompileOptions *oven.Options
	// MaxUploadBytes bounds POST /models bodies (0 = 64 MiB).
	MaxUploadBytes int64
}

// Server is the HTTP front end.
type Server struct {
	eng   serving.Engine
	cfg   Config
	start time.Time

	cache *predCache

	// draining rejects new predictions with 503 while buffered work is
	// flushed (graceful shutdown).
	draining atomic.Bool

	mu       sync.Mutex
	batchers map[string]*batcher

	mux *http.ServeMux
}

// pendingReq is one delayed-batching request awaiting its batch.
type pendingReq struct {
	input   string
	ctx     context.Context
	prio    runtime.Priority
	arrival time.Time
	reply   chan batchReply
}

type batchReply struct {
	pred []float32
	err  error
}

// New builds a FrontEnd over a serving engine (local or routing).
func New(eng serving.Engine, cfg Config) *Server {
	s := &Server{eng: eng, cfg: cfg, start: time.Now(), batchers: make(map[string]*batcher)}
	if cfg.CacheEntries > 0 {
		s.cache = newPredCache(cfg.CacheEntries)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /predict", s.handlePredict)
	s.mux.HandleFunc("GET /models", s.handleModels)
	s.mux.HandleFunc("POST /models", s.handleModelUpload)
	s.mux.HandleFunc("GET /models/{name}", s.handleModelGet)
	s.mux.HandleFunc("DELETE /models/{name}", s.handleModelDelete)
	s.mux.HandleFunc("POST /models/{name}/labels", s.handleSetLabel)
	s.mux.HandleFunc("POST /models/{name}/pin", s.handleModelPin)
	s.mux.HandleFunc("POST /models/{name}/warm", s.handleModelWarm)
	s.mux.HandleFunc("GET /models/{name}/zip", s.handleModelZip)
	s.mux.HandleFunc("GET /cluster/members", s.handleMembersGet)
	s.mux.HandleFunc("POST /cluster/members", s.handleMemberAdd)
	s.mux.HandleFunc("DELETE /cluster/members", s.handleMemberRemove)
	s.mux.HandleFunc("GET /statz", s.handleStatz)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /chaos", s.handleChaosGet)
	s.mux.HandleFunc("POST /chaos", s.handleChaosArm)
	s.mux.HandleFunc("DELETE /chaos", s.handleChaosReset)
	s.mux.HandleFunc("DELETE /chaos/{id}", s.handleChaosDisarm)
	return s
}

// Engine returns the serving engine behind the front end.
func (s *Server) Engine() serving.Engine { return s.eng }

// handleHealthz is the liveness probe: the process is up and the mux
// is serving. It stays 200 while draining (the process is still alive)
// — readiness is what flips during shutdown.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "ok")
}

// handleReadyz is the readiness probe: 200 only when the engine can
// serve traffic now (runtime open, admission not saturated, at least
// one healthy cluster node — whatever the engine's Ready checks) and
// the server is not draining. The cluster health checker and load
// balancers route on this.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "draining"})
		return
	}
	if err := s.eng.Ready(); err != nil {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	}
	body := map[string]any{"status": "ok"}
	// Quarantined models are reported but do NOT fail readiness: the
	// quarantine is the containment working — every sibling model on
	// this node still serves.
	if q, ok := serving.As[interface{ Quarantined() []string }](s.eng); ok {
		if names := q.Quarantined(); len(names) > 0 {
			body["quarantined"] = names
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// Drain puts the front end into draining mode: new predictions are
// rejected with 503 (runtime.ErrClosed) while every buffered batcher
// request is flushed and answered. It returns once all batchers are
// idle or the context expires. Part of graceful shutdown: call Drain,
// then http.Server.Shutdown, then close the engine.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	for {
		s.mu.Lock()
		idle := true
		for _, b := range s.batchers {
			if !b.idle() {
				idle = false
				// Flush now instead of waiting out the delay bound.
				b.kickNow()
			}
		}
		s.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// statusFor maps the serving seam's typed sentinel errors to HTTP codes.
func statusFor(err error) int {
	switch {
	case errors.Is(err, runtime.ErrModelNotFound):
		return http.StatusNotFound
	case errors.Is(err, runtime.ErrDeadlineExceeded),
		errors.Is(err, runtime.ErrCanceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, runtime.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, runtime.ErrModelQuarantined):
		// The model is shedding while its panic quarantine lapses; the
		// node itself is healthy. 503 + Retry-After steers clients (and
		// the cluster router's failover) elsewhere meanwhile.
		return http.StatusServiceUnavailable
	case errors.Is(err, repo.ErrStorage):
		// The disk under the model repository failed the operation
		// (full, read-only, …): a node-level condition clients should
		// retry elsewhere — and never a 409 that reads like "this
		// version already exists".
		return http.StatusServiceUnavailable
	case errors.Is(err, runtime.ErrClosed), errors.Is(err, serving.ErrNotReady):
		return http.StatusServiceUnavailable
	case errors.Is(err, runtime.ErrInvalidInput), errors.Is(err, serving.ErrBadModel):
		return http.StatusBadRequest
	case errors.As(err, new(*http.MaxBytesError)):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, serving.ErrUnsupported):
		return http.StatusNotImplemented
	case errors.Is(err, runtime.ErrKernelPanic):
		// A contained kernel panic: an internal error of this one
		// request's model, not an overload or availability condition.
		return http.StatusInternalServerError
	default:
		return http.StatusInternalServerError
	}
}

// retryAfterFor extracts a concrete Retry-After duration from a
// quarantine error (0 when err carries none).
func retryAfterFor(err error) time.Duration {
	var qe *runtime.QuarantinedError
	if errors.As(err, &qe) {
		return qe.RetryAfter()
	}
	return 0
}

// retryAfterSeconds is the Retry-After hint sent with 429 responses:
// at least one second, stretched to cover the batching window when the
// front end batches (by then the buffer has had a full flush cycle).
func (s *Server) retryAfterSeconds() int {
	secs := int((s.cfg.BatchDelay + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// DeadlineHeader carries the request's REMAINING deadline budget in
// nanoseconds on proxied predictions. A relative duration survives
// clock skew between router and node where an absolute timestamp would
// not; every hop recomputes it, so the budget shrinks as the request
// ages through retries and hedges.
const DeadlineHeader = "X-Pretzel-Deadline-Ns"

// Request is the JSON prediction request body.
type Request struct {
	Model string `json:"model"`
	Input string `json:"input"`
	// TimeoutMS bounds the request with a relative timeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// DeadlineUnixNS bounds the request with an absolute deadline in
	// Unix nanoseconds (useful for propagating an upstream budget).
	DeadlineUnixNS int64 `json:"deadline_unix_ns,omitempty"`
	// Priority is "" / "normal" or "high" (batch-engine queue class).
	Priority string `json:"priority,omitempty"`
}

// Response is the JSON prediction response body.
type Response struct {
	Prediction []float32 `json:"prediction,omitempty"`
	Cached     bool      `json:"cached,omitempty"`
	Error      string    `json:"error,omitempty"`
}

// maxBodyBytes bounds every JSON request body (predict and the small
// management bodies) so an untrusted client cannot make the node buffer
// an arbitrarily large one; model uploads carry their own, larger
// bound (Config.MaxUploadBytes).
const maxBodyBytes = 1 << 20

// decodeBody decodes a size-bounded JSON request body into v. The
// error is ready for statusFor: a body over maxBodyBytes is a
// *http.MaxBytesError (413), anything else malformed is
// runtime.ErrInvalidInput (400).
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil || errors.As(err, new(*http.MaxBytesError)) {
		return err
	}
	return fmt.Errorf("%w: bad request: %v", runtime.ErrInvalidInput, err)
}

// handlePredict decodes a request, serves it and encodes the response.
// Typed engine errors map to proper status codes: unknown model = 404,
// expired deadline = 504, closed/draining = 503, invalid input = 400.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req Request
	if err := decodeBody(w, r, &req); err != nil {
		writeJSON(w, statusFor(err), Response{Error: err.Error()})
		return
	}
	ctx := r.Context()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	var deadline time.Time
	if req.DeadlineUnixNS > 0 {
		deadline = time.Unix(0, req.DeadlineUnixNS)
	}
	// A routed request carries its remaining budget as a relative
	// duration; the soonest bound wins so a node never works past what
	// the router will wait for.
	if h := r.Header.Get(DeadlineHeader); h != "" {
		if ns, err := strconv.ParseInt(h, 10, 64); err == nil {
			hd := time.Now().Add(time.Duration(ns))
			if deadline.IsZero() || hd.Before(deadline) {
				deadline = hd
			}
		}
	}
	prio := runtime.PriorityNormal
	if req.Priority == "high" {
		prio = runtime.PriorityHigh
	}
	pred, cached, err := s.predict(ctx, req.Model, req.Input, deadline, prio)
	if err != nil {
		code := statusFor(err)
		if code == http.StatusTooManyRequests {
			// Shed load tells clients when to come back: standard 429
			// backoff semantics.
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		}
		if ra := retryAfterFor(err); ra > 0 {
			// Quarantined model: tell clients exactly when it lapses.
			w.Header().Set("Retry-After", strconv.Itoa(int(ra/time.Second)+1))
		}
		writeJSON(w, code, Response{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, Response{Prediction: pred, Cached: cached})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// Predict serves one prediction through the configured path: result
// cache, then delayed batching or the request-response engine.
func (s *Server) Predict(model, input string) (pred []float32, cached bool, err error) {
	return s.predict(context.Background(), model, input, time.Time{}, runtime.PriorityNormal)
}

// PredictCtx is Predict with a caller-supplied cancellation context.
func (s *Server) PredictCtx(ctx context.Context, model, input string) (pred []float32, cached bool, err error) {
	return s.predict(ctx, model, input, time.Time{}, runtime.PriorityNormal)
}

func (s *Server) predict(ctx context.Context, model, input string, deadline time.Time, prio runtime.Priority) (pred []float32, cached bool, err error) {
	if s.draining.Load() {
		return nil, false, fmt.Errorf("%w: server draining", runtime.ErrClosed)
	}
	cacheKey := model
	if s.cache != nil {
		// Key the result cache by the CONCRETE version the reference
		// resolves to right now, so a label move (hot swap) or
		// unregister is never masked by stale cached predictions.
		name, version, rerr := s.eng.Resolve(model)
		if rerr != nil {
			return nil, false, rerr
		}
		cacheKey = fmt.Sprintf("%s@%d", name, version)
		if p, ok := s.cache.get(cacheKey, input); ok {
			return p, true, nil
		}
	}
	if s.cfg.BatchDelay > 0 {
		// The buffered batch is shared, so per-request deadlines ride
		// on the context: an expired request is shed at flush (or at
		// admission) instead of poisoning the batch.
		if !deadline.IsZero() {
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, deadline)
			defer cancel()
		}
		pred, err = s.predictDelayed(ctx, model, input, prio)
	} else {
		pred, err = s.eng.Predict(ctx, model, input, serving.PredictOptions{Priority: prio, Deadline: deadline})
	}
	if err == nil && s.cache != nil {
		s.cache.put(cacheKey, input, pred)
	}
	return pred, false, err
}

// predictDelayed hands the request to the model's adaptive batcher,
// which flushes it with its batch (delay-bounded, size-capped) as ONE
// batched engine call: on a local engine every pipeline stage becomes
// a single event processing all buffered records, paying scheduling
// overhead once per stage instead of once per record — the point of
// delayed batching.
func (s *Server) predictDelayed(ctx context.Context, model, input string, prio runtime.Priority) ([]float32, error) {
	if err := ctx.Err(); err != nil {
		return nil, serving.MapCtxErr(err)
	}
	// Only resolvable model references get a batcher: an unknown ref
	// fails here (404) instead of permanently installing a per-string
	// batcher that attacker- or typo-driven traffic could grow without
	// bound.
	if _, _, err := s.eng.Resolve(model); err != nil {
		return nil, err
	}
	req := &pendingReq{input: input, ctx: ctx, prio: prio, arrival: time.Now(), reply: make(chan batchReply, 1)}
	if err := s.batcherFor(model).enqueue(req); err != nil {
		return nil, err
	}
	select {
	case r := <-req.reply:
		return r.pred, r.err
	case <-ctx.Done():
		// The batch still runs (it is shared); only this waiter leaves.
		return nil, serving.MapCtxErr(ctx.Err())
	}
}

// --- prediction-result LRU cache ---

type cacheKey struct {
	model string
	input string
}

type cacheEntry struct {
	key  cacheKey
	pred []float32
}

// predCache is the FrontEnd's prediction-result LRU (§4.3 "the FrontEnd
// currently implements prediction results caching (with LRU eviction
// policy)").
type predCache struct {
	mu    sync.Mutex
	max   int
	lru   *list.List
	index map[cacheKey]*list.Element

	hits, misses uint64
}

func newPredCache(max int) *predCache {
	return &predCache{max: max, lru: list.New(), index: make(map[cacheKey]*list.Element)}
}

func (c *predCache) get(model, input string) ([]float32, bool) {
	k := cacheKey{model, input}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits++
	return el.Value.(*cacheEntry).pred, true
}

func (c *predCache) put(model, input string, pred []float32) {
	k := cacheKey{model, input}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, dup := c.index[k]; dup {
		c.lru.MoveToFront(el)
		return
	}
	for c.lru.Len() >= c.max {
		back := c.lru.Back()
		if back == nil {
			break
		}
		e := back.Value.(*cacheEntry)
		c.lru.Remove(back)
		delete(c.index, e.key)
	}
	c.index[k] = c.lru.PushFront(&cacheEntry{key: k, pred: append([]float32(nil), pred...)})
}

// CacheStats reports prediction-cache counters.
type CacheStats struct {
	Hits, Misses uint64
	Entries      int
}

// CacheStats returns a snapshot of the prediction cache counters.
func (s *Server) CacheStats() CacheStats {
	if s.cache == nil {
		return CacheStats{}
	}
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	return CacheStats{Hits: s.cache.hits, Misses: s.cache.misses, Entries: s.cache.lru.Len()}
}
