package serving

import (
	"context"
	"fmt"

	"pretzel/internal/ops"
	"pretzel/internal/oven"
	"pretzel/internal/pipeline"
	"pretzel/internal/plan"
	"pretzel/internal/runtime"
	"pretzel/internal/vector"
)

// Local is the in-process Engine: the thin adapter from the seam onto
// one *runtime.Runtime. It owns the text→vector marshalling and the
// import→compile→register upload path of the management plane.
type Local struct {
	rt      *runtime.Runtime
	compile oven.Options
}

// NewLocal wraps a runtime as an Engine. opts configure compilation of
// uploaded models (nil = oven.DefaultOptions). Unless the options pin
// one explicitly, compilation interns stages in the runtime's plan
// store, so structurally identical uploads share compiled stages.
func NewLocal(rt *runtime.Runtime, opts *oven.Options) *Local {
	co := oven.DefaultOptions()
	if opts != nil {
		co = *opts
	}
	if co.Plans == nil {
		co.Plans = rt.PlanStore()
	}
	return &Local{rt: rt, compile: co}
}

// Runtime exposes the wrapped runtime (white-box escape hatch for
// tools and tests; transport engines have no equivalent).
func (l *Local) Runtime() *runtime.Runtime { return l.rt }

// SetKernelFault installs (nil removes) the runtime's kernel-level
// fault-injection hook (chaos testing; see runtime.SetKernelFault).
func (l *Local) SetKernelFault(fn func(model string) error) { l.rt.SetKernelFault(fn) }

// Quarantined lists models currently under panic quarantine.
func (l *Local) Quarantined() []string { return l.rt.Quarantined() }

// Predict serves one input on the request-response engine.
func (l *Local) Predict(ctx context.Context, model, input string, opts PredictOptions) ([]float32, error) {
	in := vector.New(0)
	in.SetText(input)
	out := vector.New(0)
	err := l.rt.PredictRequest(runtime.Request{
		Ctx:      ctx,
		Model:    model,
		In:       in,
		Out:      out,
		Priority: opts.Priority,
		Deadline: opts.Deadline,
	})
	if err != nil {
		return nil, err
	}
	return append([]float32(nil), out.Dense...), nil
}

// PredictBatch serves a whole batch of inputs as ONE batched job:
// every pipeline stage becomes a single event processing all records.
func (l *Local) PredictBatch(ctx context.Context, model string, inputs []string, opts PredictOptions) ([][]float32, error) {
	ins := make([]*vector.Vector, len(inputs))
	outs := make([]*vector.Vector, len(inputs))
	for i, s := range inputs {
		ins[i] = vector.New(0)
		ins[i].SetText(s)
		outs[i] = vector.New(0)
	}
	err := l.rt.PredictRequestBatch(runtime.BatchRequest{
		Ctx:      ctx,
		Model:    model,
		Ins:      ins,
		Outs:     outs,
		Priority: opts.Priority,
		Deadline: opts.Deadline,
	})
	if err != nil {
		return nil, err
	}
	preds := make([][]float32, len(outs))
	for i, o := range outs {
		preds[i] = append([]float32(nil), o.Dense...)
	}
	return preds, nil
}

// Resolve resolves a model reference to its concrete version.
func (l *Local) Resolve(ref string) (string, int, error) { return l.rt.Resolve(ref) }

// Models lists the runtime's white-box model views.
func (l *Local) Models() []runtime.ModelInfo { return l.rt.Models() }

// ModelInfo returns one model's white-box view.
func (l *Local) ModelInfo(name string) (runtime.ModelInfo, error) { return l.rt.ModelInfo(name) }

// errNoLabels answers a label write: labels live in a model repository
// (lifecycle.Manager), and a runtime on its own has none.
var errNoLabels = fmt.Errorf("%w: labels need a model repository", ErrUnsupported)

// Register imports, compiles and installs a model from exported zip
// bytes. A label in opts is refused with ErrUnsupported before anything
// is installed.
func (l *Local) Register(zip []byte, opts RegisterOptions) (RegisterResult, error) {
	if opts.Label != "" {
		return RegisterResult{}, errNoLabels
	}
	p, err := pipeline.ImportIndexed(zip, l.rt.ObjectStore())
	if err != nil {
		return RegisterResult{}, fmt.Errorf("%w: importing: %v", ErrBadModel, err)
	}
	name := opts.Name
	if name == "" {
		name, _ = runtime.SplitRef(p.Name)
	}
	return l.Install(p, name, opts.Version, l.compile)
}

// Install compiles an imported pipeline with co into the runtime's
// stores and registers it as name@version (version <= 0 picks the next
// free one), giving the plan's shared references back if registration
// fails. It is the one install path: Register and the lifecycle tier's
// loads both take it, so a RegisterResult's bytes mean one thing.
func (l *Local) Install(p *pipeline.Pipeline, name string, version int, co oven.Options) (RegisterResult, error) {
	// The footprint delta across compile+register is what this install
	// actually cost the node; the rest of the plan's footprint was
	// already resident — shared with earlier models. Concurrent
	// registrations can blur the split, but the totals stay correct.
	before := l.rt.MemBytes()
	pl, err := oven.Compile(p, l.rt.ObjectStore(), co)
	if err != nil {
		return RegisterResult{}, fmt.Errorf("%w: compiling: %v", ErrBadModel, err)
	}
	reg, err := l.rt.RegisterVersion(pl, name, version)
	if err != nil {
		oven.ReleasePlan(l.rt.ObjectStore(), co.Plans, pl)
		return RegisterResult{}, err
	}
	res := RegisterResult{Name: reg.Name, Version: reg.Version, ID: reg.ID}
	res.NewBytes = max(l.rt.MemBytes()-before, 0)
	if fp := planFootprint(pl); fp > res.NewBytes {
		res.SharedBytes = fp - res.NewBytes
	}
	if total := res.NewBytes + res.SharedBytes; total > 0 {
		res.DedupRatio = float64(res.SharedBytes) / float64(total)
	}
	return res, nil
}

// planFootprint is the bytes the plan would occupy with no sharing at
// all: its unique canonical parameters, its stages and the skeleton.
func planFootprint(pl *plan.Plan) int {
	total := 256
	seenP := make(map[ops.Param]bool, len(pl.Interned))
	for _, p := range pl.Interned {
		if !seenP[p] {
			seenP[p] = true
			total += p.MemBytes()
		}
	}
	seenS := make(map[*plan.Stage]bool, len(pl.Stages))
	for _, s := range pl.Stages {
		if seenS[s] {
			continue
		}
		seenS[s] = true
		if s.Shared() {
			total += s.MemEstimate()
		} else {
			total += 128
		}
	}
	return total
}

// Unregister removes a model reference, draining in-flight work first;
// the object store and plan store return to their prior footprint once
// the last sharer of each released object leaves.
func (l *Local) Unregister(ref string) error { return l.rt.Unregister(ref) }

// SetLabel answers ErrUnsupported (see errNoLabels).
func (l *Local) SetLabel(string, string, int) error { return errNoLabels }

// Stats snapshots the runtime's white-box counters.
func (l *Local) Stats() Stats {
	faults := l.rt.FaultStats()
	return Stats{
		Faults:      &faults,
		Kind:        "local",
		Catalog:     l.rt.CatalogStats(),
		RRPool:      l.rt.PoolStats(),
		BatchPool:   l.rt.BatchPoolStats(),
		Sched:       l.rt.SchedStats(),
		Admission:   l.rt.AdmissionStats(),
		Models:      l.rt.ModelLoads(),
		MatCache:    l.rt.MatCacheStats(),
		ObjectStore: l.rt.ObjectStoreStats(),
		PlanStore:   l.rt.PlanStoreStats(),
		MemBytes:    l.rt.MemBytes(),
	}
}

// Ready reports whether the runtime can serve: it must be open and,
// when admission control is configured, not fully saturated (a node at
// its global in-flight ceiling sheds everything anyway, so the health
// checker can stop routing to it).
func (l *Local) Ready() error {
	if l.rt.Closed() {
		return fmt.Errorf("%w: %v", ErrNotReady, runtime.ErrClosed)
	}
	if ad := l.rt.AdmissionStats(); ad.MaxInFlight > 0 && ad.InFlight >= int64(ad.MaxInFlight) {
		return fmt.Errorf("%w: admission saturated (%d/%d in flight)", ErrNotReady, ad.InFlight, ad.MaxInFlight)
	}
	return nil
}

// Close stops the wrapped runtime.
func (l *Local) Close() error {
	l.rt.Close()
	return nil
}
