// Package plan defines PRETZEL model plans: the compiled, white-box
// representation of a trained pipeline (§4.1.2). A plan is a DAG of
// stages; each stage binds a logical view (the fused operator sequence)
// to a physical implementation — a lock-free, parametric kernel built at
// compile time, shared between plans with identical stages and fed at
// runtime with pooled vectors and an execution context.
package plan

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"pretzel/internal/ops"
	"pretzel/internal/store"
	"pretzel/internal/text"
	"pretzel/internal/vector"
)

// InputID denotes the plan input in stage dependency lists.
const InputID = -1

// Exec is the per-execution mutable state threaded through a plan's
// stages. Kernels themselves are stateless and shared; everything that
// varies per prediction lives here. Executors own a pool of Exec values,
// so the prediction path does not allocate.
type Exec struct {
	// Acc accumulates the partial margins of linear models pushed through
	// Concat: each featurizing stage adds its block's dot product, the
	// final stage applies bias and link (§4.1.2, "in the example ... the
	// linear regression can be pushed into CharNgram and WordNgram,
	// therefore bypassing the execution of Concat"). The stage driver
	// loads it from, and stores it back to, the record's slot of the
	// accumulator row around every Kernel.Run of a UsesAcc stage.
	Acc float32

	// Pool supplies intermediate vectors.
	Pool *vector.Pool

	// Shard pins this context's pool traffic to one shard of a sharded
	// Pool (obtained once from Pool.ShardHint). Executors and pooled
	// request contexts are long-lived, so the pin gives goroutine
	// affinity: gets and puts stay on one uncontended free list.
	Shard uint32

	// Cache, when non-nil, enables sub-plan materialization (§4.3).
	Cache *store.MatCache

	// Ctx, when non-nil, is the request's cancellation source: RunPlan
	// consults it before every stage so a cancelled or deadline-expired
	// request never reaches another stage kernel.
	Ctx context.Context

	// DeadlineNS, when non-zero, is an absolute request deadline in
	// Unix nanoseconds checked alongside Ctx (a plain comparison, so
	// deadline enforcement costs no context allocation on the hot path).
	DeadlineNS int64

	// Fan, when non-nil, lets RunStageBatch split a large batch into
	// contiguous row-range subtasks run concurrently on the executor
	// pool (data-parallel batch execution). Set once per executor by the
	// scheduler; nil for request-path contexts (RunPlan's rows of one),
	// which keeps them on the sequential path with zero overhead beyond
	// this one branch.
	Fan Fanout

	// Fault, when non-nil, is the kernel-level fault-injection hook:
	// called (with FaultModel) inside the recover barrier before each
	// stage kernel runs. It may return an error to inject a typed
	// failure or panic deliberately to exercise panic containment.
	// Nil in production — one branch on the hot path.
	Fault FaultFunc
	// FaultModel is the resolved model reference handed to Fault.
	FaultModel string

	// Scratch state reused across stage executions.
	TokBuf  []byte
	WStream text.WordNgramStream
	outTab  []*vector.Vector
	scratch [2]*vector.Vector

	// RunPlan's one-slot output and accumulator rows: a request is a
	// row of one pushed through the same stage driver as a batch.
	rowOut [1]*vector.Vector
	rowAcc [1]float32

	// Stage-driver scratch reused across stage events (RunStageBatch):
	// the per-record input rows handed to the kernel and the
	// materialization-cache probe state.
	insRows  [][]*vector.Vector
	insFlat  []*vector.Vector
	hashes   []uint64
	missIdx  []int
	missIns  [][]*vector.Vector
	missOuts []*vector.Vector
	missAccs []float32
}

// InsRows returns the context's reusable batch input table: n rows of k
// input slots each, backed by one flat executor-owned array. Building a
// whole stage event's kernel inputs therefore allocates nothing in
// steady state; rows are valid until the next InsRows call.
func (e *Exec) InsRows(n, k int) [][]*vector.Vector {
	if cap(e.insRows) < n {
		e.insRows = make([][]*vector.Vector, n)
	}
	rows := e.insRows[:n]
	if cap(e.insFlat) < n*k {
		e.insFlat = make([]*vector.Vector, n*k)
	}
	flat := e.insFlat[:n*k]
	for i := range rows {
		rows[i] = flat[i*k : (i+1)*k : (i+1)*k]
	}
	return rows
}

// ScratchPair returns two executor-owned scratch vectors for kernels
// that ping-pong through a fused operator sequence. They live with the
// context (allocated once, reused forever), so fused execution costs no
// pool round-trip at all.
func (e *Exec) ScratchPair() (*vector.Vector, *vector.Vector) {
	if e.scratch[0] == nil {
		e.scratch[0] = vector.New(1 << minScratchShift)
		e.scratch[1] = vector.New(1 << minScratchShift)
	}
	return e.scratch[0], e.scratch[1]
}

const minScratchShift = 6

// Cancelled reports why the in-flight request must stop: the context
// error when Ctx is cancelled or expired, context.DeadlineExceeded when
// DeadlineNS has passed, nil otherwise. Both checks are branch-cheap
// when the request carries no cancellation state.
func (e *Exec) Cancelled() error {
	if e.Ctx != nil {
		if err := e.Ctx.Err(); err != nil {
			return err
		}
	}
	if e.DeadlineNS != 0 && time.Now().UnixNano() > e.DeadlineNS {
		return context.DeadlineExceeded
	}
	return nil
}

// ClearRequestState drops per-request cancellation state so a pooled
// Exec never leaks one request's context into the next.
func (e *Exec) ClearRequestState() {
	e.Ctx = nil
	e.DeadlineNS = 0
	e.Fault = nil
	e.FaultModel = ""
}

// Kernel is a physical stage implementation: a parametric computation
// unit built once, when the plan is compiled. Kernels must be safe for
// concurrent Run calls (all mutable state is in Exec or the
// caller-provided vectors).
type Kernel interface {
	// Kind names the physical implementation class.
	Kind() string
	// Run evaluates the stage for one record. It is the only kernel
	// method: a batch is the stage driver looping Run over the row.
	Run(ec *Exec, ins []*vector.Vector, out *vector.Vector) error
}

// Stage is one node of the compiled plan DAG.
type Stage struct {
	// ID is the first 8 bytes of Sig (little-endian): the compact key the
	// materialization cache and PanicError use. It is derived from Sig,
	// never an identity of its own.
	ID uint64

	// Ops is the logical view: the fused operator sequence.
	Ops []ops.Op

	// Inputs lists producer stage indices (InputID = plan input).
	Inputs []int

	// Sig is the stage's identity: its structural content signature,
	// set on every compiled stage. Stages with equal Sigs are
	// interchangeable, and the plan store shares one instance of them.
	Sig Sig

	// shared marks stages owned by a StageStore (see Shared).
	shared bool

	// Kern is the physical implementation. The compiler sets it on every
	// stage and nothing writes it afterwards, so concurrent executors
	// read it without synchronization.
	Kern Kernel

	// OutCap is the pool capacity hint for the stage output vector.
	OutCap int

	// Materializable marks stages whose results may be cached by input
	// hash (pure featurization stages shared across plans).
	Materializable bool

	// UsesAcc marks stages that read/write the pushdown accumulator.
	// The compiler only emits them in linear chains, which lets the
	// scheduler skip accumulator handoff for stages that may run
	// concurrently within a job.
	UsesAcc bool

	// metrics accumulates the stage's white-box execution counters,
	// recorded by every executor that runs the stage (§4.1.2: the
	// system sees inside plans, so operators can too).
	metrics stageMetrics
}

// stageMetrics is the lock-free counter block of one stage.
type stageMetrics struct {
	execs     atomic.Uint64 // stage executions (a batched stage event counts once)
	records   atomic.Uint64 // records processed across executions
	errs      atomic.Uint64 // executions that returned an error
	cacheHits atomic.Uint64 // per-record materialization-cache hits (no kernel run)
	nanos     atomic.Uint64 // cumulative wall time across executions
}

// StageStats is a white-box snapshot of one stage's execution counters.
type StageStats struct {
	Execs      uint64 // stage executions: one per record (request-response) or per batch event
	Records    uint64 // records processed, including cache-served ones
	Errs       uint64 // executions that failed
	CacheHits  uint64 // records served from the materialization cache
	TotalNanos uint64 // cumulative execution wall time
}

// AvgNanos returns the mean per-execution latency in nanoseconds.
func (st StageStats) AvgNanos() uint64 {
	if st.Execs == 0 {
		return 0
	}
	return st.TotalNanos / st.Execs
}

// Stats returns a snapshot of the stage's execution counters.
func (s *Stage) Stats() StageStats {
	return StageStats{
		Execs:      s.metrics.execs.Load(),
		Records:    s.metrics.records.Load(),
		Errs:       s.metrics.errs.Load(),
		CacheHits:  s.metrics.cacheHits.Load(),
		TotalNanos: s.metrics.nanos.Load(),
	}
}

// OpKinds lists the logical operator kinds fused into the stage.
func (s *Stage) OpKinds() []string {
	kinds := make([]string, len(s.Ops))
	for i, op := range s.Ops {
		kinds[i] = op.Info().Kind
	}
	return kinds
}

// Kernel returns the stage's physical implementation.
func (s *Stage) Kernel() Kernel { return s.Kern }

// Plan is a compiled model plan.
type Plan struct {
	Name string
	// Stages in topological order; the last stage produces the output.
	Stages []*Stage
	// MaxVecSize is the training statistic used to size vector requests.
	MaxVecSize int
	// InputIsText records the expected input kind for the FrontEnd.
	InputIsText bool
	// Interned lists the canonical parameter instances this plan
	// interned into the Object Store at compile time (one entry per
	// intern call, duplicates included). The lifecycle tier releases
	// exactly this list when the plan is evicted — the stage ops alone
	// under-count, since the optimizer rewrites some parameterized
	// operators into specialized kernels.
	Interned []ops.Param

	capsOnce  sync.Once
	interCaps []int
}

// InterCaps returns the pool capacity hints for the plan's intermediate
// vectors (outputs of every stage but the last), so executors can
// acquire the whole execution's memory in one batched pool visit.
func (p *Plan) InterCaps() []int {
	p.capsOnce.Do(func() {
		if len(p.Stages) < 2 {
			return
		}
		caps := make([]int, len(p.Stages)-1)
		for i, s := range p.Stages[:len(p.Stages)-1] {
			caps[i] = s.OutCap
		}
		p.interCaps = caps
	})
	return p.interCaps
}

// Validate checks structural invariants of the compiled plan.
func (p *Plan) Validate() error {
	if len(p.Stages) == 0 {
		return fmt.Errorf("plan %s: no stages", p.Name)
	}
	for i, s := range p.Stages {
		if len(s.Ops) == 0 {
			return fmt.Errorf("plan %s: stage %d empty", p.Name, i)
		}
		for _, in := range s.Inputs {
			if in != InputID && (in < 0 || in >= i) {
				return fmt.Errorf("plan %s: stage %d input %d not topological", p.Name, i, in)
			}
		}
	}
	return nil
}

// FNV-1a constants (hash/fnv, inlined so the hot path never pays an
// interface-method call per element).
const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

// fnvAdd folds b into the running FNV-1a state h.
func fnvAdd(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

// fnvAddString is fnvAdd over a string without a []byte conversion.
func fnvAddString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// hashChunk is the stack buffer the numeric element loops encode into
// before folding: one fnvAdd pass per chunk instead of one hash write
// per 4-8 byte element.
const hashChunk = 256

// HashInput computes the cache key hash of an input vector (sub-plan
// materialization keys results by stage and input). It produces the
// same FNV-1a values as hashing the tagged byte encoding through
// hash/fnv, but batches dense/sparse elements through a stack chunk
// buffer so large feature vectors hash in a few tight passes.
func HashInput(v *vector.Vector) uint64 {
	var buf [hashChunk]byte
	h := uint64(fnvOffset64)
	switch v.Kind {
	case vector.KindText:
		h = (h ^ 1) * fnvPrime64
		h = fnvAddString(h, v.Text)
	case vector.KindTokens:
		h = (h ^ 2) * fnvPrime64
		for i := 0; i < v.NumTokens(); i++ {
			h = fnvAdd(h, v.TokenAt(i))
			h = h * fnvPrime64 // the 0 separator byte
		}
	case vector.KindDense:
		h = (h ^ 3) * fnvPrime64
		n := 0
		for _, x := range v.Dense {
			u := math.Float32bits(x)
			buf[n] = byte(u)
			buf[n+1] = byte(u >> 8)
			buf[n+2] = byte(u >> 16)
			buf[n+3] = byte(u >> 24)
			n += 4
			if n == hashChunk {
				h = fnvAdd(h, buf[:])
				n = 0
			}
		}
		h = fnvAdd(h, buf[:n])
	case vector.KindSparse:
		h = (h ^ 4) * fnvPrime64
		n := 0
		for i, ix := range v.Idx {
			u := uint32(ix)
			w := math.Float32bits(v.Val[i])
			buf[n] = byte(u)
			buf[n+1] = byte(u >> 8)
			buf[n+2] = byte(u >> 16)
			buf[n+3] = byte(u >> 24)
			buf[n+4] = byte(w)
			buf[n+5] = byte(w >> 8)
			buf[n+6] = byte(w >> 16)
			buf[n+7] = byte(w >> 24)
			n += 8
			if n == hashChunk {
				h = fnvAdd(h, buf[:])
				n = 0
			}
		}
		h = fnvAdd(h, buf[:n])
	}
	return h
}
