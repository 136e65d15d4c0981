// Kernel panic containment. PRETZEL runs many tenants' pipelines in
// one address space — the price of white-box model density is that a
// single panicking kernel would otherwise take down every model on the
// node. The stage driver (RunStageBatch, which both engines go
// through) therefore runs the kernel inside a recover() barrier: a
// panic becomes a *PanicError carrying the stage identity and the
// captured stack, which the runtime maps to its typed ErrKernelPanic
// and counts toward the model's quarantine window. The process and
// every sibling model keep serving.
package plan

import (
	"fmt"
	"runtime/debug"

	"pretzel/internal/vector"
)

// PanicError is a kernel panic converted into an error at the stage
// boundary: the panic value and goroutine stack captured at recovery,
// plus the identity of the stage that blew up.
type PanicError struct {
	// StageID identifies the physical stage whose kernel panicked.
	StageID uint64
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("plan: kernel panic in stage %x: %v", e.StageID, e.Value)
}

// FaultFunc is the kernel-level fault-injection hook (see Exec.Fault):
// called inside the recover barrier before the kernel runs, it may
// return an error to inject a typed failure, or panic deliberately to
// exercise the full panic-containment path — exactly what a buggy
// kernel would do.
type FaultFunc func(model string) error

// guardStageBatch runs one stage event inside the recover barrier,
// converting a kernel panic into a *PanicError (each data-parallel
// subtask adds its own barrier on top — see runStageBatchFanned). The
// fault hook fires once per event, before the fan decision, so injected
// faults and deliberate panics behave identically fanned or not.
func guardStageBatch(s *Stage, kern Kernel, ec *Exec, insRows [][]*vector.Vector, outs []*vector.Vector, accs []float32) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{StageID: s.ID, Value: v, Stack: debug.Stack()}
		}
	}()
	if ec.Fault != nil {
		if ferr := ec.Fault(ec.FaultModel); ferr != nil {
			return ferr
		}
	}
	if f := ec.Fan; f != nil && f.ShouldFan(len(outs)) {
		return runStageBatchFanned(s, kern, ec, insRows, outs, accs)
	}
	hits, err := runStageBatchRange(s, kern, ec, insRows, outs, accs)
	if hits > 0 {
		s.metrics.cacheHits.Add(uint64(hits))
	}
	return err
}
