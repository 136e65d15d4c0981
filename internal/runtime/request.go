// Request-path API of the Runtime: context-aware, deadline-enforcing
// prediction requests with typed sentinel errors. Three entry points:
// PredictRequest (inline, request-response engine), SubmitRequestBatch
// (asynchronous, batch engine) and PredictRequestBatch (submit + Wait).
package runtime

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pretzel/internal/plan"
	"pretzel/internal/sched"
	"pretzel/internal/vector"
)

// Typed sentinel errors of the serving API. Callers classify failures
// with errors.Is; the HTTP front end maps them to status codes.
var (
	// ErrModelNotFound reports a reference no installed model resolves.
	ErrModelNotFound = errors.New("runtime: model not found")
	// ErrDeadlineExceeded reports a request dropped because its context
	// or deadline expired before completion.
	ErrDeadlineExceeded = errors.New("runtime: deadline exceeded")
	// ErrCanceled reports a request whose context was canceled.
	ErrCanceled = errors.New("runtime: request canceled")
	// ErrClosed reports a request against a closed runtime.
	ErrClosed = errors.New("runtime: runtime closed")
	// ErrInvalidInput reports a malformed request or registration.
	ErrInvalidInput = errors.New("runtime: invalid input")
	// ErrOverloaded reports a request shed at admission because the
	// configured in-flight limits are exhausted: the server is over
	// capacity and the caller should back off and retry (HTTP 429).
	ErrOverloaded = errors.New("runtime: overloaded")
)

// Priority selects the batch-engine queue class for submitted requests.
type Priority int8

const (
	// PriorityNormal enqueues head stages behind started pipelines.
	PriorityNormal Priority = iota
	// PriorityHigh lets a request's head stages jump the low-priority
	// queue (latency-critical traffic).
	PriorityHigh
)

// Request is one context-aware prediction request. Model accepts
// "name", "name@version" or "name@label" references.
type Request struct {
	// Ctx carries cancellation; nil means context.Background().
	Ctx context.Context
	// Model is the model reference to serve.
	Model string
	// In and Out are the request input and output vectors.
	In, Out *vector.Vector
	// Priority selects the admission class (see admit).
	Priority Priority
	// Deadline, when non-zero, is an absolute deadline enforced before
	// every stage — cheaper than wrapping Ctx in context.WithDeadline
	// on the hot path.
	Deadline time.Time
}

// BatchRequest is a whole batch of records served as one job: every
// pipeline stage becomes a single event processing all records.
type BatchRequest struct {
	Ctx       context.Context
	Model     string
	Ins, Outs []*vector.Vector
	Priority  Priority
	Deadline  time.Time
}

// Ticket is the handle of an asynchronously submitted request; Wait
// blocks for completion and returns a typed error.
type Ticket struct {
	// Model is the resolved concrete reference ("name@version").
	Model string
	job   *sched.Job
}

// Wait blocks until the submitted request finishes.
func (t *Ticket) Wait() error { return mapError(t.job.Wait()) }

// mapError folds lower-layer failure causes into the API's typed
// sentinels; unrecognized errors pass through unchanged.
func mapError(err error) error {
	if err == nil {
		return nil
	}
	// Declared after the nil check: &pe escapes into errors.As, so an
	// earlier declaration would heap-allocate on the zero-alloc warm
	// path too.
	var pe *plan.PanicError
	switch {
	case errors.As(err, &pe):
		return fmt.Errorf("%w: %v", ErrKernelPanic, err)
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w (%v)", ErrDeadlineExceeded, err)
	case errors.Is(err, context.Canceled):
		return fmt.Errorf("%w (%v)", ErrCanceled, err)
	case errors.Is(err, sched.ErrStopped):
		return fmt.Errorf("%w (%v)", ErrClosed, err)
	default:
		return err
	}
}

// deadlineNS validates a request deadline: ns is the absolute deadline
// in Unix nanoseconds (0 = none) and err is ErrDeadlineExceeded when it
// already passed.
func deadlineNS(t time.Time) (ns int64, err error) {
	if t.IsZero() {
		return 0, nil
	}
	ns = t.UnixNano()
	if time.Now().UnixNano() > ns {
		return ns, fmt.Errorf("%w: deadline already passed", ErrDeadlineExceeded)
	}
	return ns, nil
}

// admit applies admission control to one resolved request: it reserves
// an in-flight slot against the global and per-model limits or sheds
// the request with ErrOverloaded. Best-effort (PriorityNormal) traffic
// is admitted only up to MaxInFlight - ReservedHighPriority globally
// and MaxInFlightPerModel per model; PriorityHigh traffic may use the
// reserved headroom and bypasses the per-model limit. The admitted
// path is two atomic adds — no locks, no allocation — so it rides the
// zero-alloc warm Predict path. The caller must pair a successful
// admit with exactly one exit.
func (rt *Runtime) admit(r *Registered, prio Priority) error {
	if limit := int64(rt.cfg.MaxInFlight); limit > 0 {
		allowed := limit
		if prio != PriorityHigh {
			allowed -= int64(rt.cfg.ReservedHighPriority)
		}
		if cur := rt.inflight.Add(1); cur > allowed {
			rt.inflight.Add(-1)
			rt.shedCnt.Add(1)
			r.stats.shed.Add(1)
			return fmt.Errorf("%w: %d requests in flight (best-effort limit %d of %d)", ErrOverloaded, cur-1, allowed, limit)
		}
	} else {
		rt.inflight.Add(1)
	}
	if pm := int64(rt.cfg.MaxInFlightPerModel); pm > 0 && prio != PriorityHigh {
		if r.stats.inflight.Add(1) > pm {
			r.stats.inflight.Add(-1)
			rt.inflight.Add(-1)
			rt.shedCnt.Add(1)
			r.stats.shed.Add(1)
			return fmt.Errorf("%w: model %q at per-model in-flight limit (%d)", ErrOverloaded, r.Name, pm)
		}
	} else {
		r.stats.inflight.Add(1)
	}
	return nil
}

// exit releases the in-flight slot reserved by admit.
func (rt *Runtime) exit(r *Registered) {
	r.stats.inflight.Add(-1)
	rt.inflight.Add(-1)
}

// PredictRequest serves one request on the request-response engine:
// execution is inlined in the calling goroutine (no scheduling
// overhead; §4.2.1). Cancellation and deadline are checked before every
// stage, so an expired request never reaches a stage kernel.
func (rt *Runtime) PredictRequest(req Request) error {
	if req.Model == "" || req.In == nil || req.Out == nil {
		return fmt.Errorf("%w: model, in and out are required", ErrInvalidInput)
	}
	if rt.closed.Load() {
		return ErrClosed
	}
	if req.Ctx != nil {
		if err := req.Ctx.Err(); err != nil {
			return mapError(err)
		}
	}
	ns, err := deadlineNS(req.Deadline)
	if err != nil {
		return err
	}
	r, err := rt.acquire(req.Model)
	if err != nil {
		return err
	}
	if err := rt.admit(r, req.Priority); err != nil {
		r.release()
		return err
	}
	start := time.Now()
	// Deferred so a panicking kernel (recovered by net/http) can never
	// leak the admission slot or the version pin — a leaked pin would
	// wedge Unregister forever and a leaked slot would shed traffic
	// against phantom in-flight requests.
	defer func() {
		rt.exit(r)
		r.stats.lat.Record(time.Since(start))
		r.release()
	}()
	ec := rt.execPool.Get().(*plan.Exec)
	ec.Ctx = req.Ctx
	ec.DeadlineNS = ns
	if f := rt.kernelFault(); f != nil {
		ec.Fault, ec.FaultModel = f, r.Name
	}
	err = plan.RunPlan(r.Plan, ec, req.In, req.Out)
	ec.ClearRequestState()
	rt.execPool.Put(ec)
	if err != nil {
		var pe *plan.PanicError
		if errors.As(err, &pe) {
			rt.notePanic(r, pe)
		}
	}
	return mapError(err)
}

// SubmitRequestBatch schedules a whole batch of records as one job on
// the batch engine and returns its ticket.
func (rt *Runtime) SubmitRequestBatch(req BatchRequest) (*Ticket, error) {
	if req.Model == "" {
		return nil, fmt.Errorf("%w: model is required", ErrInvalidInput)
	}
	if len(req.Ins) == 0 || len(req.Ins) != len(req.Outs) {
		return nil, fmt.Errorf("%w: batch ins/outs mismatch (%d/%d)", ErrInvalidInput, len(req.Ins), len(req.Outs))
	}
	if rt.closed.Load() {
		return nil, ErrClosed
	}
	ns, err := deadlineNS(req.Deadline)
	if err != nil {
		return nil, err
	}
	r, err := rt.acquire(req.Model)
	if err != nil {
		return nil, err
	}
	// One batch job occupies one admission slot: the unit the limits
	// bound is scheduler work, and a batched flush is one job. (The
	// HTTP front end additionally bounds its per-model buffer with
	// MaxPending, shedding individual buffered requests.)
	if err := rt.admit(r, req.Priority); err != nil {
		r.release()
		return nil, err
	}
	j := sched.NewBatchJob(r.Plan, req.Ins, req.Outs, rt.matCache)
	if req.Ctx != nil {
		j.SetContext(req.Ctx)
	}
	if ns != 0 {
		j.SetDeadline(req.Deadline)
	}
	j.SetHighPriority(req.Priority == PriorityHigh)
	if f := rt.kernelFault(); f != nil {
		j.SetFault(f, r.Name)
	}
	// The version stays pinned (Unregister drains it) until the job
	// finishes, even if the caller never Waits. Completion releases the
	// admission slot and records end-to-end latency (queue wait
	// included) in the model's histogram.
	start := time.Now()
	j.SetOnDone(func(err error) {
		var pe *plan.PanicError
		if errors.As(err, &pe) {
			rt.notePanic(r, pe)
		}
		rt.exit(r)
		r.stats.lat.Record(time.Since(start))
		r.release()
	})
	rt.sched.Submit(j)
	return &Ticket{Model: fmt.Sprintf("%s@%d", r.Name, r.Version), job: j}, nil
}

// PredictRequestBatch serves a batch request and waits for completion.
func (rt *Runtime) PredictRequestBatch(req BatchRequest) error {
	t, err := rt.SubmitRequestBatch(req)
	if err != nil {
		return err
	}
	return t.Wait()
}
