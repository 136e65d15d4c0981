// Package sched implements PRETZEL's event-based scheduler (§4.2.2):
// each core runs an Executor pulling stage-execution events from its own
// two-priority queue shard — a low-priority queue for the head stages of
// newly submitted pipelines and a high-priority queue for stages of
// already-started pipelines — and steals from other executors' shards
// when its own is empty, high priority always before low. Started
// pipelines therefore finish early and return their pooled vectors
// quickly, while executors never convoy on one shared mutex and cond
// var. Reservation-based scheduling gives a plan dedicated executors and
// vector pools, emulating container-style isolation while still sharing
// parameters and physical stages.
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"pretzel/internal/plan"
	"pretzel/internal/store"
	"pretzel/internal/vector"
)

// ErrStopped reports a job submitted to (or stranded in) a scheduler
// that has been closed.
var ErrStopped = errors.New("sched: scheduler stopped")

// Job is one pipeline invocation — for one record or a whole batch —
// scheduled stage-by-stage. A batched job moves all its records through
// a stage in one event (the batch engine's unit of work; §5.3 uses
// batches of 1000), paying scheduling overhead once per stage rather
// than once per record.
type Job struct {
	Plan *plan.Plan
	Ins  []*vector.Vector
	Outs []*vector.Vector

	cache    *store.MatCache
	retPool  *vector.Pool       // pool bound at first stage execution
	retShard uint32             // shard hint of the binding executor
	accs     []float32          // per-record pushdown accumulators
	outputs  [][]*vector.Vector // [stage][record] intermediate vectors
	rowStore []*vector.Vector   // flat [stage*record] backing of outputs rows
	pending  []int32            // per-stage unmet input count (atomic)
	heads    []int              // stages with no stage dependencies
	left     atomic.Int32

	failed  atomic.Bool
	errOnce sync.Once
	err     error

	// Request-scoped lifecycle state: cancellation source, absolute
	// deadline, queue priority and a completion hook. Set between
	// NewBatchJob and Submit; immutable afterwards.
	ctx        context.Context
	deadlineNS int64
	highPrio   bool
	onDone     func(error)
	fault      plan.FaultFunc
	faultModel string

	done     chan error
	doneOnce sync.Once
	poolOnce sync.Once
}

// NewBatchJob prepares a batched pipeline invocation over len(ins)
// records. cache may be nil.
func NewBatchJob(p *plan.Plan, ins, outs []*vector.Vector, cache *store.MatCache) *Job {
	j := &Job{Plan: p, Ins: ins, Outs: outs, done: make(chan error, 1)}
	j.cache = cache
	n := len(p.Stages)
	j.accs = make([]float32, len(ins))
	j.outputs = make([][]*vector.Vector, n)
	// One flat allocation at job creation backs every stage's output
	// row: stage events execute with zero per-event allocation, and
	// concurrent sibling stages write disjoint sub-slices.
	j.rowStore = make([]*vector.Vector, n*len(ins))
	j.pending = make([]int32, n)
	for i, s := range p.Stages {
		deps := 0
		for _, src := range s.Inputs {
			if src != plan.InputID {
				deps++
			}
		}
		j.pending[i] = int32(deps)
		if deps == 0 {
			j.heads = append(j.heads, i)
		}
	}
	j.left.Store(int32(n))
	return j
}

// Wait blocks until the job finishes and returns its error.
func (j *Job) Wait() error { return <-j.done }

// stageRow returns the job-owned output row of one stage: a sub-slice
// of the flat backing array allocated once at job creation, so stage
// events never allocate row storage.
func (j *Job) stageRow(stage int) []*vector.Vector {
	n := len(j.Ins)
	return j.rowStore[stage*n : (stage+1)*n : (stage+1)*n]
}

// SetContext attaches a cancellation source consulted before every
// stage dispatch: expired jobs are dropped without touching a kernel.
// Must be called before Submit.
func (j *Job) SetContext(ctx context.Context) { j.ctx = ctx }

// SetDeadline attaches an absolute deadline checked alongside the
// context (zero time = none). Must be called before Submit.
func (j *Job) SetDeadline(t time.Time) {
	if t.IsZero() {
		j.deadlineNS = 0
		return
	}
	j.deadlineNS = t.UnixNano()
}

// SetHighPriority enqueues the job's head stages on the high-priority
// queues, letting latency-critical requests jump ahead of newly
// submitted bulk pipelines. Must be called before Submit.
func (j *Job) SetHighPriority(high bool) { j.highPrio = high }

// SetOnDone registers a hook invoked exactly once when the job
// finishes (nil error on success). Must be called before Submit.
func (j *Job) SetOnDone(fn func(error)) { j.onDone = fn }

// SetFault attaches the kernel-level fault-injection hook threaded
// into every stage execution of this job (chaos testing; nil in
// production). Must be called before Submit.
func (j *Job) SetFault(fn plan.FaultFunc, model string) {
	j.fault = fn
	j.faultModel = model
}

// expired reports the job's cancellation cause, nil while live.
func (j *Job) expired() error {
	if j.ctx != nil {
		if err := j.ctx.Err(); err != nil {
			return err
		}
	}
	if j.deadlineNS != 0 && time.Now().UnixNano() > j.deadlineNS {
		return context.DeadlineExceeded
	}
	return nil
}

// fail records the first error; later stages of the job are skipped.
// Reports whether this call was the one that failed the job.
func (j *Job) fail(err error) (first bool) {
	j.errOnce.Do(func() {
		j.err = err
		j.failed.Store(true)
		first = true
	})
	return first
}

// event is one stage execution bound to a job, or — when sub is non-nil
// — a data-parallel help event inviting an idle executor to claim row
// ranges of an in-flight fanned stage (see fan.go).
type event struct {
	job   *Job
	stage int
	sub   *subtask
}

// queueShard is one independently locked two-priority FIFO pair. The
// hi/lo atomic counters let poppers and sleepers skip empty shards
// without taking the lock; the trailing pad keeps adjacent shards off
// one cache line.
type queueShard struct {
	mu     sync.Mutex
	high   []event
	hHead  int
	low    []event
	lHead  int
	closed bool

	hi atomic.Int32 // len(high) - hHead
	lo atomic.Int32 // len(low) - lHead

	_ [64]byte
}

// take pops the shard's oldest event of the given priority, non-blocking.
func (s *queueShard) take(high bool) (ev event, ok bool) {
	s.mu.Lock()
	if high {
		if len(s.high) > s.hHead {
			ev = s.high[s.hHead]
			s.high[s.hHead] = event{}
			s.hHead++
			if s.hHead == len(s.high) {
				s.high = s.high[:0]
				s.hHead = 0
			}
			s.hi.Add(-1)
			ok = true
		}
	} else {
		if len(s.low) > s.lHead {
			ev = s.low[s.lHead]
			s.low[s.lHead] = event{}
			s.lHead++
			if s.lHead == len(s.low) {
				s.low = s.low[:0]
				s.lHead = 0
			}
			s.lo.Add(-1)
			ok = true
		}
	}
	s.mu.Unlock()
	return ev, ok
}

// queueSet is an unbounded two-priority blocking queue, sharded one
// queue pair per executor with work-stealing between shards. Executors
// serve their own shard first and steal high-priority events (stages of
// started pipelines) from every shard before any low-priority event
// (pipeline heads), so running pipelines still drain early and return
// memory quickly (§4.2.2) — without all cores convoying on one mutex
// and cond var.
type queueSet struct {
	shards []queueShard
	cursor atomic.Uint32 // round-robin shard pick for external submits

	// Parking: executors that find every shard empty sleep on wakeCond.
	// sleepers is written under wakeMu but read lock-free by pushers, so
	// the push fast path never touches the wake mutex while anyone runs.
	wakeMu   sync.Mutex
	wakeCond *sync.Cond
	sleepers atomic.Int32
	closed   atomic.Bool
}

// newQueueSet builds a queue set with one shard per executor.
func newQueueSet(shards int) *queueSet {
	if shards < 1 {
		shards = 1
	}
	q := &queueSet{shards: make([]queueShard, shards)}
	q.wakeCond = sync.NewCond(&q.wakeMu)
	return q
}

// push enqueues an event on the hinted shard; returns false if closed.
// Executors push readiness (high) events to their own shard for
// locality; Submit spreads pipeline heads round-robin.
func (q *queueSet) push(ev event, high bool, hint uint32) bool {
	s := &q.shards[hint%uint32(len(q.shards))]
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	if high {
		s.high = append(s.high, ev)
		s.hi.Add(1)
	} else {
		s.low = append(s.low, ev)
		s.lo.Add(1)
	}
	s.mu.Unlock()
	q.wake(1)
	return true
}

// pushN enqueues a batch of events on one shard in one lock round-trip.
func (q *queueSet) pushN(evs []event, high bool, hint uint32) bool {
	if len(evs) == 0 {
		return true
	}
	s := &q.shards[hint%uint32(len(q.shards))]
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	if high {
		s.high = append(s.high, evs...)
		s.hi.Add(int32(len(evs)))
	} else {
		s.low = append(s.low, evs...)
		s.lo.Add(int32(len(evs)))
	}
	s.mu.Unlock()
	q.wake(len(evs))
	return true
}

// wake signals up to n parked executors if any. Pairs with the
// sleepers-then-recheck protocol in pop: with sequentially consistent
// atomics, either the pusher observes the sleeper (and signals under
// wakeMu) or the sleeper's recheck observes the pushed counter. One
// signal per enqueued event lets a batch of independent head stages
// start on distinct executors at once.
func (q *queueSet) wake(n int) {
	if q.sleepers.Load() == 0 {
		return
	}
	q.wakeMu.Lock()
	for i := 0; i < n; i++ {
		q.wakeCond.Signal()
	}
	q.wakeMu.Unlock()
}

// depth sums the queued-event counters across shards: the set's
// high/low queue depths. Lock-free (reads the per-shard atomics), so
// the admission plane and /statz can poll it against serving traffic.
func (q *queueSet) depth() (hi, lo int64) {
	for i := range q.shards {
		hi += int64(q.shards[i].hi.Load())
		lo += int64(q.shards[i].lo.Load())
	}
	return hi, lo
}

// anyWork reports whether any shard holds a queued event.
func (q *queueSet) anyWork() bool {
	for i := range q.shards {
		if q.shards[i].hi.Load() > 0 || q.shards[i].lo.Load() > 0 {
			return true
		}
	}
	return false
}

// pop blocks for the next event for executor self: own shard's high
// queue, then high stolen from other shards, then own low, then stolen
// low. ok=false once the set is closed and fully drained.
func (q *queueSet) pop(self int) (ev event, ok bool) {
	n := len(q.shards)
	for {
		for k := 0; k < n; k++ {
			s := &q.shards[(self+k)%n]
			if s.hi.Load() > 0 {
				if ev, ok := s.take(true); ok {
					return ev, true
				}
			}
		}
		for k := 0; k < n; k++ {
			s := &q.shards[(self+k)%n]
			if s.lo.Load() > 0 {
				if ev, ok := s.take(false); ok {
					return ev, true
				}
			}
		}
		if q.closed.Load() {
			// Final locked sweep so in-flight events still drain.
			for i := range q.shards {
				if ev, ok := q.shards[i].take(true); ok {
					return ev, true
				}
				if ev, ok := q.shards[i].take(false); ok {
					return ev, true
				}
			}
			return event{}, false
		}
		q.wakeMu.Lock()
		q.sleepers.Add(1)
		if q.anyWork() || q.closed.Load() {
			q.sleepers.Add(-1)
			q.wakeMu.Unlock()
			continue
		}
		q.wakeCond.Wait()
		q.sleepers.Add(-1)
		q.wakeMu.Unlock()
	}
}

// close wakes all waiters; push fails afterwards and executors exit once
// the shards are drained. The per-shard flags are set BEFORE the global
// flag: an executor only exits after observing q.closed and sweeping the
// shards under their locks, and any push that succeeded did so while its
// shard was still open — i.e. before q.closed became true — so its event
// is visible to that final sweep and no job is stranded.
func (q *queueSet) close() {
	for i := range q.shards {
		s := &q.shards[i]
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
	}
	q.closed.Store(true)
	q.wakeMu.Lock()
	q.wakeCond.Broadcast()
	q.wakeMu.Unlock()
}

// Config sets scheduler parameters.
type Config struct {
	// Executors is the number of worker goroutines (≈ cores), default 4.
	Executors int
}

// Scheduler coordinates executors over the shared queues.
type Scheduler struct {
	cfg     Config
	shared  *queueSet
	startNS int64

	mu           sync.Mutex
	reservations map[string]*queueSet
	pools        []*vector.Pool      // every executor-owned pool, for stats
	execCounters []*executorCounters // every executor's utilization block

	// White-box job accounting (Stats).
	submitted atomic.Uint64
	completed atomic.Uint64
	failedCnt atomic.Uint64
	expired   atomic.Uint64

	// Data-parallel accounting: stage events that fanned out, and the
	// row-range subtasks they split into.
	parallelStages   atomic.Uint64
	parallelSubtasks atomic.Uint64

	closed atomic.Bool
	wg     sync.WaitGroup
}

// executorCounters is one executor's utilization block. Each executor
// owns its own cache-line-padded block, so the hot-loop updates never
// share a line with a neighbour.
type executorCounters struct {
	events   atomic.Uint64 // stage events executed
	subtasks atomic.Uint64 // fanned row ranges executed (own + helped)
	busyNS   atomic.Uint64 // time spent off the queue, working
	_        [40]byte
}

// Stats is a white-box snapshot of the scheduler's job accounting.
// Expired jobs (dropped before stage dispatch because their context or
// deadline ran out) are also counted as Failed.
type Stats struct {
	Submitted uint64 `json:"submitted"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Expired   uint64 `json:"expired"`

	// QueueHigh/QueueLow are the currently queued stage events across
	// every shard (shared + reservations): started-pipeline stages wait
	// in the high queues, not-yet-started pipeline heads in the low
	// queues. The overload plane watches these depths.
	QueueHigh int64 `json:"queue_high"`
	QueueLow  int64 `json:"queue_low"`

	Executors    int `json:"executors"`
	Reservations int `json:"reservations"`

	// ParallelStages counts stage events that fanned into row-range
	// subtasks; ParallelSubtasks counts the ranges they split into.
	ParallelStages   uint64 `json:"parallel_stages"`
	ParallelSubtasks uint64 `json:"parallel_subtasks"`

	// UptimeNS is nanoseconds since the scheduler started — the
	// denominator for per-executor utilization (busy_ns / uptime_ns).
	UptimeNS int64 `json:"uptime_ns"`

	// ExecutorUtil is one entry per executor (shared pool first, then
	// reservations in creation order): how many stage events and fanned
	// row ranges it ran, and how long it spent working vs parked.
	ExecutorUtil []ExecutorUtil `json:"executor_util"`
}

// ExecutorUtil is one executor's utilization snapshot.
type ExecutorUtil struct {
	Events   uint64 `json:"events"`
	Subtasks uint64 `json:"subtasks"`
	BusyNS   uint64 `json:"busy_ns"`
}

// Stats returns a snapshot of the scheduler's job counters and queue
// depths.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	nres := len(s.reservations)
	sets := make([]*queueSet, 0, 1+nres)
	sets = append(sets, s.shared)
	for _, qs := range s.reservations {
		sets = append(sets, qs)
	}
	counters := append([]*executorCounters(nil), s.execCounters...)
	s.mu.Unlock()
	var hi, lo int64
	for _, qs := range sets {
		h, l := qs.depth()
		hi += h
		lo += l
	}
	util := make([]ExecutorUtil, len(counters))
	for i, c := range counters {
		util[i] = ExecutorUtil{
			Events:   c.events.Load(),
			Subtasks: c.subtasks.Load(),
			BusyNS:   c.busyNS.Load(),
		}
	}
	return Stats{
		Submitted:        s.submitted.Load(),
		Completed:        s.completed.Load(),
		Failed:           s.failedCnt.Load(),
		Expired:          s.expired.Load(),
		QueueHigh:        hi,
		QueueLow:         lo,
		Executors:        s.cfg.Executors,
		Reservations:     nres,
		ParallelStages:   s.parallelStages.Load(),
		ParallelSubtasks: s.parallelSubtasks.Load(),
		UptimeNS:         time.Now().UnixNano() - s.startNS,
		ExecutorUtil:     util,
	}
}

// New starts a scheduler with the given configuration.
func New(cfg Config) *Scheduler {
	if cfg.Executors <= 0 {
		cfg.Executors = 4
	}
	s := &Scheduler{
		cfg:          cfg,
		shared:       newQueueSet(cfg.Executors),
		startNS:      time.Now().UnixNano(),
		reservations: make(map[string]*queueSet),
	}
	for i := 0; i < cfg.Executors; i++ {
		s.wg.Add(1)
		go s.executor(s.shared, i, s.newExecutorPool())
	}
	return s
}

// newExecutorCounters builds one executor's utilization block and
// records it for Stats aggregation.
func (s *Scheduler) newExecutorCounters() *executorCounters {
	c := &executorCounters{}
	s.mu.Lock()
	s.execCounters = append(s.execCounters, c)
	s.mu.Unlock()
	return c
}

// newExecutorPool builds one executor's vector pool and records it for
// PoolStats aggregation.
func (s *Scheduler) newExecutorPool() *vector.Pool {
	pool := vector.NewPool()
	s.mu.Lock()
	s.pools = append(s.pools, pool)
	s.mu.Unlock()
	return pool
}

// PoolStats aggregates the counters of every executor-owned vector pool
// (invariants: Gets == Hits + Allocs, Puts <= Gets).
func (s *Scheduler) PoolStats() vector.PoolStats {
	s.mu.Lock()
	pools := append([]*vector.Pool(nil), s.pools...)
	s.mu.Unlock()
	var st vector.PoolStats
	for _, p := range pools {
		st.Add(p.Stats())
	}
	return st
}

// Reserve dedicates n executors (with their own queues and vector pools)
// to one plan (§4.2.2 reservation-based scheduling). Parameters and
// physical stages remain shared with the rest of the runtime.
func (s *Scheduler) Reserve(planName string, n int) error {
	if n <= 0 {
		return fmt.Errorf("sched: reservation needs n > 0")
	}
	s.mu.Lock()
	if _, dup := s.reservations[planName]; dup {
		s.mu.Unlock()
		return fmt.Errorf("sched: plan %q already reserved", planName)
	}
	qs := newQueueSet(n)
	s.reservations[planName] = qs
	s.mu.Unlock()
	for i := 0; i < n; i++ {
		s.wg.Add(1)
		go s.executor(qs, i, s.newExecutorPool())
	}
	return nil
}

// queuesFor routes a plan to its reservation queues or the shared pair.
func (s *Scheduler) queuesFor(planName string) *queueSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	if qs, ok := s.reservations[planName]; ok {
		return qs
	}
	return s.shared
}

// Submit enqueues a job: its head stages (those depending only on the
// request input) enter one round-robin-chosen shard's queue in a single
// lock round-trip — low priority by default, high for jobs marked
// latency-critical. Already-expired jobs are dropped without touching
// the queues at all.
func (s *Scheduler) Submit(j *Job) {
	s.submitted.Add(1)
	if err := j.expired(); err != nil {
		s.expired.Add(1)
		s.failedCnt.Add(1)
		j.fail(fmt.Errorf("sched: plan %s dropped before dispatch: %w", j.Plan.Name, err))
		j.finish()
		return
	}
	qs := s.queuesFor(j.Plan.Name)
	var evBuf [4]event
	evs := evBuf[:0]
	for _, i := range j.heads {
		evs = append(evs, event{job: j, stage: i})
	}
	if !qs.pushN(evs, j.highPrio, qs.cursor.Add(1)) {
		s.failedCnt.Add(1)
		j.fail(ErrStopped)
		j.finish()
	}
}

// Close stops all executors; in-flight jobs fail.
func (s *Scheduler) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.shared.close()
	s.mu.Lock()
	for _, qs := range s.reservations {
		qs.close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// executor is the per-core worker loop with its own vector pool, queue
// shard, and execution context (allocated per executor to improve
// locality, §4.2.1).
func (s *Scheduler) executor(qs *queueSet, idx int, pool *vector.Pool) {
	defer s.wg.Done()
	c := s.newExecutorCounters()
	ec := &plan.Exec{Pool: pool, Shard: pool.ShardHint()}
	ec.Fan = &fanout{s: s, qs: qs, idx: idx, ec: ec, counters: c}
	for {
		ev, ok := qs.pop(idx)
		if !ok {
			return
		}
		start := time.Now()
		if ev.sub != nil {
			// Help event: claim row ranges of an in-flight fanned stage.
			// Popped after the ranges are exhausted it is a no-op.
			c.subtasks.Add(ev.sub.runRanges(ec))
		} else {
			s.exec(ev, ec, qs, idx)
			c.events.Add(1)
		}
		c.busyNS.Add(uint64(time.Since(start)))
	}
}

// exec runs one stage event — all records of the job through ONE
// RunStageBatch invocation (one timing read, one metrics update, one
// batched cache probe) — then unblocks its consumers (even on failure,
// so skipped stages still drain and the job completes). ec is the
// executor-owned context; the per-record pushdown accumulator row is
// handed to the batch as a whole for accumulator-using stages (which
// the compiler only emits in linear chains, so the handoff never races
// with a concurrent sibling stage).
func (s *Scheduler) exec(ev event, ec *plan.Exec, qs *queueSet, idx int) {
	j := ev.job
	// Drop expired jobs before stage dispatch: a cancelled or
	// deadline-exceeded request never reaches a stage kernel; its
	// remaining stages drain through the skip path below.
	if !j.failed.Load() {
		if err := j.expired(); err != nil {
			if j.fail(fmt.Errorf("sched: plan %s dropped before stage %d: %w", j.Plan.Name, ev.stage, err)) {
				s.expired.Add(1)
			}
		}
	}
	if !j.failed.Load() {
		if err := s.execStage(j, ev, ec); err != nil {
			j.fail(fmt.Errorf("sched: plan %s stage %d: %w", j.Plan.Name, ev.stage, err))
		}
	}
	// Propagate readiness (also for skipped stages of failed jobs).
	// Ready consumers go to this executor's own shard, high priority.
	for k := ev.stage + 1; k < len(j.Plan.Stages); k++ {
		consumes := false
		for _, src := range j.Plan.Stages[k].Inputs {
			if src == ev.stage {
				consumes = true
				break
			}
		}
		if !consumes {
			continue
		}
		if atomic.AddInt32(&j.pending[k], -1) == 0 {
			if !qs.push(event{job: j, stage: k}, true, uint32(idx)) {
				j.fail(ErrStopped)
				// Fall through: completeStage below still drains.
				if j.completeStage() {
					s.finishCounters(j)
				}
			}
		}
	}
	if j.completeStage() {
		s.finishCounters(j)
	}
}

// execStage runs the stage body for one event: acquire the stage's
// record row, assemble the batch input table, and push it through
// RunStageBatch with the job's fault hook threaded into the execution
// context. The recover here is a backstop for panics OUTSIDE the
// kernel barrier (row assembly, pool accounting): an executor
// goroutine must never die, because it is shared by every model on the
// node — a panic fails the one job and the worker keeps draining.
func (s *Scheduler) execStage(j *Job, ev event, ec *plan.Exec) (err error) {
	defer func() {
		ec.Fault, ec.FaultModel = nil, ""
		if v := recover(); v != nil {
			err = &plan.PanicError{StageID: j.Plan.Stages[ev.stage].ID, Value: v, Stack: debug.Stack()}
		}
	}()
	// Vectors are requested per pipeline, lazily, when the first
	// stage executes: the job binds this executor's pool (and its
	// shard) for returns.
	j.poolOnce.Do(func() { j.retPool, j.retShard = ec.Pool, ec.Shard })
	ec.Cache = j.cache
	ec.Fault, ec.FaultModel = j.fault, j.faultModel

	st := j.Plan.Stages[ev.stage]
	nRec := len(j.Ins)
	row := j.stageRow(ev.stage)
	if ev.stage == len(j.Plan.Stages)-1 {
		copy(row, j.Outs)
	} else {
		// One pool visit acquires the whole record row for the stage.
		ec.Pool.GetNUniform(ec.Shard, row, st.OutCap)
	}
	j.outputs[ev.stage] = row
	// Assemble the batch input table in executor-owned storage, then
	// push the whole record row through the stage in one invocation.
	insRows := ec.InsRows(nRec, len(st.Inputs))
	for r := 0; r < nRec; r++ {
		ins := insRows[r]
		for c, src := range st.Inputs {
			if src == plan.InputID {
				ins[c] = j.Ins[r]
			} else {
				ins[c] = j.outputs[src][r]
			}
		}
	}
	return plan.RunStageBatch(st, ec, insRows, row, j.accs)
}

// finishCounters accounts one finished job in the scheduler stats.
func (s *Scheduler) finishCounters(j *Job) {
	if j.err != nil {
		s.failedCnt.Add(1)
	} else {
		s.completed.Add(1)
	}
}

// completeStage accounts one finished (or skipped) stage and finalizes
// the job when all stages have drained: pooled vectors are returned for
// the whole pipeline — one batched pool visit per stage row — and the
// waiter is signalled. Reports whether this call finalized the job.
func (j *Job) completeStage() bool {
	if j.left.Add(-1) != 0 {
		return false
	}
	if j.retPool != nil {
		lastIdx := len(j.Plan.Stages) - 1
		for i, row := range j.outputs {
			// The last stage's row is the caller's output vectors.
			if i != lastIdx && row != nil {
				j.retPool.PutN(j.retShard, row)
			}
			j.outputs[i] = nil
		}
		// Drop the flat backing's references too: returned vectors must
		// not stay reachable through the (caller-held) job.
		for i := range j.rowStore {
			j.rowStore[i] = nil
		}
	}
	j.finish()
	return true
}

// finish delivers the job result exactly once: the OnDone hook fires,
// then the (buffered) done channel receives the error for Wait.
func (j *Job) finish() {
	j.doneOnce.Do(func() {
		if j.onDone != nil {
			j.onDone(j.err)
		}
		j.done <- j.err
	})
}
