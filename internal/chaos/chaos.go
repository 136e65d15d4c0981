// Package chaos implements a deterministic fault-injection engine for
// the serving stack: an Injector wraps any serving.Engine as
// middleware and — driven by armed Rules — injects latency, typed
// errors, kernel panics and full-node blackouts into the traffic
// flowing through it. Every probabilistic decision draws from one
// seeded generator, so a chaos run replays bit-identically from its
// seed: "the test failed under seed 7" is a reproduction recipe, not
// an anecdote.
//
// Panic rules are special: a panic injected at the middleware layer
// would unwind the HTTP handler, not a kernel — so the Injector
// instead installs the runtime's kernel-level fault hook (through the
// SetKernelFault of the serving.Local at the bottom of the stack, found
// with serving.As) and panics INSIDE stage execution, exercising
// exactly the containment path a buggy kernel takes: recover at the
// stage boundary, typed ErrKernelPanic, panic counting, quarantine.
// Stacks without the hook (over a cluster Router — panic isolation is a
// node property) refuse panic rules at Arm time instead of silently
// doing nothing.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"pretzel/internal/runtime"
	"pretzel/internal/serving"
)

// Effects a Rule can inject.
const (
	// EffectLatency sleeps LatencyMS before forwarding the call.
	EffectLatency = "latency"
	// EffectError fails the call with the typed sentinel named by Error.
	EffectError = "error"
	// EffectPanic panics inside kernel execution (requires an engine
	// with a kernel fault hook, i.e. a local runtime).
	EffectPanic = "panic"
	// EffectBlackout takes the whole node down while armed: every
	// predict fails and Ready reports not-ready — what a crashed or
	// partitioned process looks like from outside.
	EffectBlackout = "blackout"
)

// Rule is one armed fault. Zero values choose the permissive default:
// match every model and op, fire on every matching call.
type Rule struct {
	// ID identifies the armed rule (assigned by Arm, read-only).
	ID int `json:"id,omitempty"`
	// Model restricts the rule to one bare model name ("" or "*" = all).
	Model string `json:"model,omitempty"`
	// Op restricts the rule to "predict" or "predict_batch" ("" = both).
	// Panic rules ignore Op (they fire inside kernel execution).
	Op string `json:"op,omitempty"`
	// Effect is one of latency, error, panic, blackout.
	Effect string `json:"effect"`
	// LatencyMS is the injected delay for latency rules.
	LatencyMS int `json:"latency_ms,omitempty"`
	// Error names the sentinel injected by error rules: overloaded,
	// deadline, not_found, canceled, invalid or internal.
	Error string `json:"error,omitempty"`
	// Probability fires the rule on this fraction of matching calls,
	// drawn from the injector's seeded generator (0 = always).
	Probability float64 `json:"probability,omitempty"`
	// EveryN, when > 0, replaces the dice with a deterministic
	// sequence: the rule fires on every Nth matching call.
	EveryN int `json:"every_n,omitempty"`
	// MaxHits disarms the rule's effect after this many firings
	// (0 = unlimited). The rule stays listed with its hit count.
	MaxHits int `json:"max_hits,omitempty"`
	// Hits counts firings (read-only).
	Hits uint64 `json:"hits,omitempty"`
}

// namedErrors maps Rule.Error names to injected sentinels.
var namedErrors = map[string]error{
	"overloaded": runtime.ErrOverloaded,
	"deadline":   runtime.ErrDeadlineExceeded,
	"not_found":  runtime.ErrModelNotFound,
	"canceled":   runtime.ErrCanceled,
	"invalid":    runtime.ErrInvalidInput,
	"internal":   errors.New("chaos: injected internal error"),
}

// ruleState is one armed rule plus its firing counters.
type ruleState struct {
	Rule
	seq  atomic.Uint64 // matching-call sequence (EveryN mode)
	hits atomic.Uint64
}

// faultSetter is the kernel-fault face of an engine that can thread a
// hook into stage execution (serving.Local hands it to the runtime).
type faultSetter interface {
	SetKernelFault(fn func(model string) error)
}

// Injector is the chaos middleware: it embeds the wrapped engine, so
// every call passes straight through except the ones it intercepts
// (Predict, PredictBatch, Ready, Close), where armed faults are
// injected on the way. Safe for concurrent use; with no rules armed the
// overhead is one atomic load per call.
type Injector struct {
	serving.Engine
	seed uint64

	mu    sync.Mutex
	rng   *rand.Rand
	rules []*ruleState
	next  int

	// armed mirrors len(rules) for the lock-free fast path; panicArmed
	// counts armed panic rules (the kernel hook is installed only while
	// > 0); blackouts counts armed blackout rules.
	armed      atomic.Int64
	panicArmed atomic.Int64
	blackouts  atomic.Int64

	injected atomic.Uint64
}

var _ serving.Engine = (*Injector)(nil)

// New wraps an engine with a disarmed injector. The seed drives every
// probabilistic decision; the same seed and traffic replay the same
// faults.
func New(inner serving.Engine, seed int64) *Injector {
	return &Injector{
		Engine: inner,
		seed:   uint64(seed),
		rng:    rand.New(rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15)),
	}
}

// Unwrap returns the wrapped engine (see serving.As).
func (c *Injector) Unwrap() serving.Engine { return c.Engine }

// Seed returns the seed the injector was built with.
func (c *Injector) Seed() int64 { return int64(c.seed) }

// Arm validates and installs a rule, returning it with its assigned ID.
func (c *Injector) Arm(r Rule) (Rule, error) {
	switch r.Effect {
	case EffectLatency:
		if r.LatencyMS <= 0 {
			return Rule{}, fmt.Errorf("chaos: latency rule needs latency_ms > 0")
		}
	case EffectError:
		if _, ok := namedErrors[r.Error]; !ok {
			return Rule{}, fmt.Errorf("chaos: unknown error name %q (want overloaded, deadline, not_found, canceled, invalid or internal)", r.Error)
		}
	case EffectPanic:
		if _, ok := serving.As[faultSetter](c.Engine); !ok {
			return Rule{}, fmt.Errorf("chaos: engine %T has no kernel fault hook (panic injection needs a local runtime; over a router, arm the rule on a node)", c.Engine)
		}
	case EffectBlackout:
	default:
		return Rule{}, fmt.Errorf("chaos: unknown effect %q (want latency, error, panic or blackout)", r.Effect)
	}
	if r.Probability < 0 || r.Probability > 1 {
		return Rule{}, fmt.Errorf("chaos: probability %v outside [0, 1]", r.Probability)
	}
	switch r.Op {
	case "", "predict", "predict_batch":
	default:
		return Rule{}, fmt.Errorf("chaos: unknown op %q (want predict or predict_batch)", r.Op)
	}
	c.mu.Lock()
	c.next++
	r.ID = c.next
	r.Hits = 0
	rs := &ruleState{Rule: r}
	c.rules = append(c.rules, rs)
	c.armed.Store(int64(len(c.rules)))
	if r.Effect == EffectPanic && c.panicArmed.Add(1) == 1 {
		c.setKernelFault(c.kernelFault)
	}
	if r.Effect == EffectBlackout {
		c.blackouts.Add(1)
	}
	c.mu.Unlock()
	return r, nil
}

// Disarm removes one rule by ID.
func (c *Injector) Disarm(id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, rs := range c.rules {
		if rs.ID == id {
			c.rules = append(c.rules[:i], c.rules[i+1:]...)
			c.armed.Store(int64(len(c.rules)))
			c.dropEffectLocked(rs)
			return nil
		}
	}
	return fmt.Errorf("chaos: no rule %d", id)
}

// Reset disarms every rule.
func (c *Injector) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, rs := range c.rules {
		c.dropEffectLocked(rs)
	}
	c.rules = nil
	c.armed.Store(0)
}

// dropEffectLocked releases a removed rule's side state (c.mu held).
func (c *Injector) dropEffectLocked(rs *ruleState) {
	switch rs.Effect {
	case EffectPanic:
		if c.panicArmed.Add(-1) == 0 {
			c.setKernelFault(nil)
		}
	case EffectBlackout:
		c.blackouts.Add(-1)
	}
}

// setKernelFault installs (nil removes) the hook on the engine below
// that has one; Arm refuses panic rules when none does.
func (c *Injector) setKernelFault(fn func(model string) error) {
	if fs, ok := serving.As[faultSetter](c.Engine); ok {
		fs.SetKernelFault(fn)
	}
}

// Rules snapshots the armed rules with their hit counts.
func (c *Injector) Rules() []Rule {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Rule, len(c.rules))
	for i, rs := range c.rules {
		out[i] = rs.Rule
		out[i].Hits = rs.hits.Load()
	}
	return out
}

// Injected returns the total number of fault firings.
func (c *Injector) Injected() uint64 { return c.injected.Load() }

// fires decides (deterministically, under c.mu) whether a matching
// rule fires on this call.
func (c *Injector) fires(rs *ruleState) bool {
	if rs.MaxHits > 0 && rs.hits.Load() >= uint64(rs.MaxHits) {
		return false
	}
	if rs.EveryN > 0 {
		return rs.seq.Add(1)%uint64(rs.EveryN) == 0
	}
	if rs.Probability > 0 && rs.Probability < 1 {
		return c.rng.Float64() < rs.Probability
	}
	return true
}

// hit accounts one firing.
func (c *Injector) hit(rs *ruleState) {
	rs.hits.Add(1)
	c.injected.Add(1)
}

// matches reports whether a rule applies to this op and model.
func matches(rs *ruleState, op, model string) bool {
	if rs.Op != "" && rs.Op != op {
		return false
	}
	if rs.Model != "" && rs.Model != "*" {
		name, _ := runtime.SplitRef(model)
		return rs.Model == name
	}
	return true
}

// decide evaluates the armed latency/error/blackout rules for one call
// and returns the injected error (nil = forward the call). Latency
// rules sleep here — bounded by the caller's context — and then let
// the call proceed, so an injected delay composes with an injected
// error the way a slow-then-failing node would behave.
func (c *Injector) decide(ctx context.Context, op, model string) error {
	c.mu.Lock()
	var inject error
	var delay time.Duration
	for _, rs := range c.rules {
		if rs.Effect == EffectPanic || !matches(rs, op, model) || !c.fires(rs) {
			continue
		}
		switch rs.Effect {
		case EffectLatency:
			c.hit(rs)
			delay += time.Duration(rs.LatencyMS) * time.Millisecond
		case EffectError:
			if inject == nil {
				c.hit(rs)
				inject = fmt.Errorf("%w (chaos rule %d)", namedErrors[rs.Error], rs.ID)
			}
		case EffectBlackout:
			if inject == nil {
				c.hit(rs)
				inject = fmt.Errorf("%w: chaos blackout (rule %d)", serving.ErrNotReady, rs.ID)
			}
		}
	}
	c.mu.Unlock()
	if delay > 0 {
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return serving.MapCtxErr(ctx.Err())
		}
	}
	return inject
}

// kernelFault is the hook installed into the runtime while panic rules
// are armed. It runs inside the stage recover barrier, once per stage
// execution, and panics deliberately when a rule fires — a synthetic
// buggy kernel.
func (c *Injector) kernelFault(model string) error {
	if c.panicArmed.Load() == 0 {
		return nil
	}
	trip := 0
	c.mu.Lock()
	for _, rs := range c.rules {
		if rs.Effect != EffectPanic || !matches(rs, "", model) || !c.fires(rs) {
			continue
		}
		c.hit(rs)
		trip = rs.ID
		break
	}
	c.mu.Unlock()
	if trip != 0 {
		panic(fmt.Sprintf("chaos: injected kernel panic (rule %d, model %s)", trip, model))
	}
	return nil
}

// --- the intercepted serving.Engine methods ---

// Predict forwards one prediction through the armed faults.
func (c *Injector) Predict(ctx context.Context, model, input string, opts serving.PredictOptions) ([]float32, error) {
	if c.armed.Load() > 0 {
		if err := c.decide(ctx, "predict", model); err != nil {
			return nil, err
		}
	}
	return c.Engine.Predict(ctx, model, input, opts)
}

// PredictBatch forwards a batch; faults apply once to the whole batch
// (the unit the engine fails is the batch, matching its all-or-nothing
// contract).
func (c *Injector) PredictBatch(ctx context.Context, model string, inputs []string, opts serving.PredictOptions) ([][]float32, error) {
	if c.armed.Load() > 0 {
		if err := c.decide(ctx, "predict_batch", model); err != nil {
			return nil, err
		}
	}
	return c.Engine.PredictBatch(ctx, model, inputs, opts)
}

// Ready reports not-ready while a blackout rule is armed (probes and
// health checkers see the node as down), else defers to the engine.
func (c *Injector) Ready() error {
	if c.blackouts.Load() > 0 {
		return fmt.Errorf("%w: chaos blackout armed", serving.ErrNotReady)
	}
	return c.Engine.Ready()
}

// Close disarms everything (removing the kernel hook) and closes the
// wrapped engine.
func (c *Injector) Close() error {
	c.Reset()
	return c.Engine.Close()
}
