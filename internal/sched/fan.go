// Data-parallel batch execution: the scheduler-side half of plan.Fanout.
// A large stage event splits into contiguous row-range subtasks that
// ride the SAME work-stealing two-priority queues as stage events — no
// separate goroutine pool — as high-priority help events. Claiming is
// cursor-based: the originator and every helper loop over an atomic
// range cursor, so the originator always participates (it never merely
// blocks), a help event that is popped after the ranges are exhausted
// is a no-op, and the join completes even if no helper ever shows up.
// Fan returns only after every range has finished: no subtask outlives
// its stage event.
package sched

import (
	"sync"
	"sync/atomic"

	"pretzel/internal/plan"
)

// batchGrain is the row count above which a stage event fans out into
// row-range subtasks across idle executors, and the size of each range
// (the last may be short).
const batchGrain = 32

// subtask is one fanned stage event's shared claim state.
type subtask struct {
	run     func(lo, hi int, ec *plan.Exec) error
	n       int   // total rows
	nRanges int32 // number of ranges = ceil(n/batchGrain)

	cursor   atomic.Int32 // next unclaimed range index
	finished atomic.Int32 // ranges completed (run or skipped-after-failure)
	doneCh   chan struct{}

	failed atomic.Bool
	errMu  sync.Mutex
	err    error
}

// fail records the first error; later ranges of the subtask skip their
// kernel work and only count toward completion.
func (st *subtask) fail(err error) {
	if err == nil {
		return
	}
	st.errMu.Lock()
	if st.err == nil {
		st.err = err
	}
	st.errMu.Unlock()
	st.failed.Store(true)
}

// runRanges claims and runs ranges until the cursor is exhausted,
// returning how many ranges this caller executed. Every claimant —
// originator or helper — runs this same loop, so work balances across
// however many executors actually pick up help events. The claimant
// that completes the last range closes doneCh, which is the
// happens-before edge making every range's writes visible to the
// originator's join.
func (st *subtask) runRanges(ec *plan.Exec) (ran uint64) {
	for {
		i := st.cursor.Add(1) - 1
		if i >= st.nRanges {
			return ran
		}
		if !st.failed.Load() {
			lo := int(i) * batchGrain
			hi := lo + batchGrain
			if hi > st.n {
				hi = st.n
			}
			st.fail(st.run(lo, hi, ec))
			ran++
		}
		if st.finished.Add(1) == st.nRanges {
			close(st.doneCh)
		}
	}
}

// fanout implements plan.Fanout for one executor. It is bound to the
// executor's own queue set (shared or reservation), so reserved
// executors fan only among themselves and isolation holds.
type fanout struct {
	s        *Scheduler
	qs       *queueSet
	idx      int
	ec       *plan.Exec
	counters *executorCounters
}

// ShouldFan implements plan.Fanout: fan only when the batch exceeds the
// grain (so at least two ranges exist) AND at least one executor of
// this queue set is parked. If every executor is busy, splitting adds
// claim/join overhead without adding parallelism — the event stays on
// the sequential zero-alloc path. Reads two atomics, allocates nothing.
func (f *fanout) ShouldFan(n int) bool {
	return n > batchGrain && f.qs.sleepers.Load() > 0 && !f.qs.closed.Load()
}

// Fan implements plan.Fanout. Help events — one per executor that could
// conceivably assist, not one per range, since every helper drains the
// cursor in a loop — are pushed high-priority so sibling executors
// prefer finishing this in-flight stage over starting new pipelines
// (the same started-work-first policy the two-priority queues encode).
// A failed push (set closing) is harmless: the originator's own claim
// loop covers every range.
func (f *fanout) Fan(n int, run func(lo, hi int, ec *plan.Exec) error) error {
	nr := int32((n + batchGrain - 1) / batchGrain)
	st := &subtask{run: run, n: n, nRanges: nr, doneCh: make(chan struct{})}
	helpers := int(nr) - 1
	if max := len(f.qs.shards) - 1; helpers > max {
		helpers = max
	}
	if helpers > 0 {
		evs := make([]event, helpers)
		for i := range evs {
			evs[i].sub = st
		}
		f.qs.pushN(evs, true, uint32(f.idx))
	}
	f.s.parallelStages.Add(1)
	f.s.parallelSubtasks.Add(uint64(nr))
	f.counters.subtasks.Add(st.runRanges(f.ec))
	<-st.doneCh
	st.errMu.Lock()
	err := st.err
	st.errMu.Unlock()
	return err
}

var _ plan.Fanout = (*fanout)(nil)
