package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"pretzel/internal/serving"
)

// The three spans of a live traced request, outermost first. A span's
// parent is the span one step out with the same trace id.
const (
	spanClient  = iota // send to reply at the generator (root)
	spanHandler        // the http.Handler around *frontend.Server
	spanEngine         // the serving.Engine between frontend and lifecycle
)

var spanNames = [...]string{"client", "frontend.handler", "engine"}

type span struct {
	kind       uint8
	id         uint64
	start, end int64 // ns since the tracer was made
	n          int32 // records carried (batch size for engine spans of a batch)
}

// tracer keeps spans in a buffer allocated up front and writes them
// out when the run ends. While on is false the wrappers pass through.
type tracer struct {
	epoch   time.Time
	on      atomic.Bool
	ids     atomic.Uint64
	used    atomic.Int64
	dropped atomic.Int64
	spans   []span
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) record(kind uint8, id uint64, start, end time.Time, n int) {
	i := t.used.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = span{kind: kind, id: id, start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch)), n: int32(n)}
}

func (t *tracer) recorded() []span {
	return t.spans[:min(t.used.Load(), int64(len(t.spans)))]
}

type traceKey struct{}

// handler wraps the front end: a request that carries the trace header
// gets a frontend.handler span and its id in the request context.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := r.Header.Get(traceHeader)
		if h == "" || !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		id, err := strconv.ParseUint(h, 10, 64)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), traceKey{}, id)))
		t.record(spanHandler, id, start, time.Now(), 1)
	})
}

// tracedEngine sits where cmd/pretzel-server hands the lifecycle
// manager to the front end and records an engine span for every
// predict whose context carries a trace id.
type tracedEngine struct {
	serving.Engine
	tr *tracer
}

func (e *tracedEngine) Predict(ctx context.Context, model, input string, opts serving.PredictOptions) ([]float32, error) {
	id, ok := ctx.Value(traceKey{}).(uint64)
	if !ok {
		return e.Engine.Predict(ctx, model, input, opts)
	}
	start := time.Now()
	out, err := e.Engine.Predict(ctx, model, input, opts)
	e.tr.record(spanEngine, id, start, time.Now(), 1)
	return out, err
}

func (e *tracedEngine) PredictBatch(ctx context.Context, model string, inputs []string, opts serving.PredictOptions) ([][]float32, error) {
	id, ok := ctx.Value(traceKey{}).(uint64)
	if !ok {
		return e.Engine.PredictBatch(ctx, model, inputs, opts)
	}
	start := time.Now()
	out, err := e.Engine.PredictBatch(ctx, model, inputs, opts)
	e.tr.record(spanEngine, id, start, time.Now(), len(inputs))
	return out, err
}

// write stores the spans as JSON lines: name, trace id, parent span
// name, start and end in nanoseconds, records carried.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.recorded() {
		parent := ""
		if s.kind > spanClient {
			parent = spanNames[s.kind-1]
		}
		fmt.Fprintf(w, `{"name":%q,"trace":%d,"parent":%q,"start_ns":%d,"end_ns":%d,"records":%d}`+"\n",
			spanNames[s.kind], s.id, parent, s.start, s.end, s.n)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// live joins the spans of each trace id and returns, per request that
// has a client span, how long the client, the handler and the engine
// spans lasted (0 for a span the request never opened: the result
// cache answered, or an offline job that has no handler).
func (t *tracer) live() (client, handler, engine []int64) {
	byID := map[uint64]*[3]int64{}
	for _, s := range t.recorded() {
		d := byID[s.id]
		if d == nil {
			d = &[3]int64{}
			byID[s.id] = d
		}
		d[s.kind] = s.end - s.start
	}
	for _, d := range byID {
		if d[spanClient] == 0 {
			continue
		}
		client = append(client, d[spanClient])
		handler = append(handler, d[spanHandler])
		engine = append(engine, d[spanEngine])
	}
	return
}
