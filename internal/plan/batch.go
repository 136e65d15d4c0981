// Stage execution: the one driver both engines run a stage through.
// The unit of work is a record row (§4.2, §5.2): the batch engine hands
// RunStageBatch a whole job's records per stage event, the
// request-response engine (RunPlan) a row of one. Either way the driver
// pays one timing read and one metrics update per stage event, probes
// the materialization cache for the whole row up front, and loops the
// stage's kernel over the records that missed.
//
// Kernels deliberately have no whole-row method: on the repository
// benchmark a native row loop inside each kernel measured the same as
// this record loop (batch-offline 182–195k vs 178–193k rec/s, sa-long
// 23.9–24.9k vs 20.3–24.9k), so a second face per kernel buys nothing.
package plan

import (
	"fmt"
	"time"

	"pretzel/internal/vector"
)

// RunStageBatch executes one stage over a record row — one stage event.
// insRows[r] holds record r's stage inputs in Stage.Inputs order and
// outs[r] receives its output; accs is the per-record pushdown
// accumulator row and must have len(outs) entries when the stage uses
// the accumulator (other stages ignore it, and it may then be nil).
func RunStageBatch(s *Stage, ec *Exec, insRows [][]*vector.Vector, outs []*vector.Vector, accs []float32) error {
	kern := s.Kernel()
	if kern == nil {
		return fmt.Errorf("plan: stage %x has no kernel bound", s.ID)
	}
	if len(insRows) != len(outs) {
		return fmt.Errorf("plan: stage %x batch ins/outs mismatch (%d/%d)", s.ID, len(insRows), len(outs))
	}
	if s.UsesAcc && len(accs) < len(outs) {
		return fmt.Errorf("plan: stage %x uses the accumulator but got %d accs for %d records", s.ID, len(accs), len(outs))
	}
	start := time.Now()
	err := guardStageBatch(s, kern, ec, insRows, outs, accs)
	s.metrics.nanos.Add(uint64(time.Since(start)))
	s.metrics.execs.Add(1)
	s.metrics.records.Add(uint64(len(outs)))
	if err != nil {
		s.metrics.errs.Add(1)
	}
	return err
}

// runStageBatchRange handles the batched materialization-cache protocol
// around the kernel invocation for one contiguous row range: hash every
// record's input, serve hits by copy, gather the misses into a
// contiguous sub-batch for the kernel, and insert the fresh results. It
// is the body shared by the sequential event path and the data-parallel
// subtasks (which each bring their own *Exec, so the scratch slices
// never collide); it reports cache hits to the caller instead of
// touching stage counters, so metrics stay one update per stage event
// regardless of how many subtasks the event fanned into.
func runStageBatchRange(s *Stage, kern Kernel, ec *Exec, insRows [][]*vector.Vector, outs []*vector.Vector, accs []float32) (hits int, err error) {
	n := len(outs)
	if n == 0 {
		return 0, nil
	}
	if !s.Materializable || ec.Cache == nil || len(insRows[0]) != 1 {
		return 0, runRows(kern, ec, insRows, outs, accs, s.UsesAcc)
	}
	if cap(ec.hashes) < n {
		ec.hashes = make([]uint64, n)
	}
	hashes := ec.hashes[:n]
	miss := ec.missIdx[:0]
	for r := 0; r < n; r++ {
		hashes[r] = HashInput(insRows[r][0])
		if !ec.Cache.GetInto(s.ID, hashes[r], outs[r]) {
			miss = append(miss, r)
		}
	}
	ec.missIdx = miss
	hits = n - len(miss)
	if len(miss) == 0 {
		return hits, nil
	}
	if len(miss) == n {
		// Nothing was served: run the whole batch as-is.
		if err := runRows(kern, ec, insRows, outs, accs, s.UsesAcc); err != nil {
			return hits, err
		}
		for r := 0; r < n; r++ {
			ec.Cache.Put(s.ID, hashes[r], outs[r])
		}
		return hits, nil
	}
	// Gather the misses into a dense sub-batch (executor-owned scratch,
	// no allocation in steady state), run the kernel once over it, then
	// scatter accumulators back and insert the results.
	if cap(ec.missIns) < len(miss) {
		ec.missIns = make([][]*vector.Vector, len(miss))
		ec.missOuts = make([]*vector.Vector, len(miss))
		ec.missAccs = make([]float32, len(miss))
	}
	mIns, mOuts := ec.missIns[:len(miss)], ec.missOuts[:len(miss)]
	var mAccs []float32
	for i, r := range miss {
		mIns[i], mOuts[i] = insRows[r], outs[r]
	}
	if s.UsesAcc {
		mAccs = ec.missAccs[:len(miss)]
		for i, r := range miss {
			mAccs[i] = accs[r]
		}
	}
	if err := runRows(kern, ec, mIns, mOuts, mAccs, s.UsesAcc); err != nil {
		return hits, err
	}
	if s.UsesAcc {
		for i, r := range miss {
			accs[r] = mAccs[i]
		}
	}
	for _, r := range miss {
		ec.Cache.Put(s.ID, hashes[r], outs[r])
	}
	return hits, nil
}

// runRows is the record loop, the only caller of Kernel.Run: the
// kernel evaluates each record of the row in turn, with the record's
// pushdown accumulator handed through ec.Acc for UsesAcc stages.
func runRows(kern Kernel, ec *Exec, insRows [][]*vector.Vector, outs []*vector.Vector, accs []float32, usesAcc bool) error {
	for r := range outs {
		if usesAcc {
			ec.Acc = accs[r]
		}
		if err := kern.Run(ec, insRows[r], outs[r]); err != nil {
			return fmt.Errorf("record %d: %w", r, err)
		}
		if usesAcc {
			accs[r] = ec.Acc
		}
	}
	return nil
}
