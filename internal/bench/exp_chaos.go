package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"pretzel/internal/chaos"
	"pretzel/internal/cluster"
	"pretzel/internal/runtime"
	"pretzel/internal/serving"
	"pretzel/internal/store"
)

// runChaosExp is the fault-containment experiment: the serving stack
// under deterministic injected faults, in two phases.
//
// Phase 1 (panic containment): a local engine hosts two models; a
// chaos rule makes every kernel execution of one model panic. The
// containment plane must convert the first PanicThreshold panics to
// typed ErrKernelPanic, quarantine the model after that (503-class
// ErrModelQuarantined), and keep the sibling model at 100% success
// with zero process crashes — the ISSUE's acceptance scenario.
//
// Phase 2 (hedged routing under faults): a 3-node K=2 cluster serves a
// closed loop twice over the same nodes — first fault-free to fix the
// baseline, then with one node degraded by +100ms injected latency and
// a 30% injected-error rate. Hedged requests (backup to the other
// replica after a short delay) plus budgeted retries must carry the
// faulted phase: the verdicts count hedges fired and won in that phase
// (both > 0) and failed predictions (0). The p99 ratio to the
// fault-free phase is printed, not asserted: histogram buckets make it
// a step function that host noise moves more than the mechanism does.
func runChaosExp(w io.Writer, env *Env) error {
	if err := chaosPanicPhase(w); err != nil {
		return err
	}
	return chaosHedgePhase(w, env)
}

// chaosPanicPhase runs the panic-isolation acceptance scenario.
func chaosPanicPhase(w io.Writer) error {
	const threshold = 3
	rt := runtime.New(store.New(), runtime.Config{
		Executors:      2,
		PanicThreshold: threshold,
		PanicWindow:    time.Minute,
		Quarantine:     time.Minute,
	})
	inj := chaos.New(serving.NewLocal(rt, nil), 42)
	defer inj.Close()
	for _, name := range []string{"good", "bad"} {
		p, err := clusterPipe(name)
		if err != nil {
			return err
		}
		zip, err := p.ExportBytes()
		if err != nil {
			return err
		}
		if _, err := inj.Register(zip, serving.RegisterOptions{Name: name}); err != nil {
			return err
		}
	}
	if _, err := inj.Arm(chaos.Rule{Model: "bad", Effect: chaos.EffectPanic}); err != nil {
		return err
	}

	const iters = 12
	var panics, quarantined, other, siblingOK int
	ctx := context.Background()
	for i := 0; i < iters; i++ {
		_, err := inj.Predict(ctx, "bad", "a nice product", serving.PredictOptions{})
		switch {
		case errors.Is(err, runtime.ErrKernelPanic):
			panics++
		case errors.Is(err, runtime.ErrModelQuarantined):
			quarantined++
		default:
			other++
		}
		if _, err := inj.Predict(ctx, "good", "a nice product", serving.PredictOptions{}); err == nil {
			siblingOK++
		}
	}
	st := inj.Stats()
	fmt.Fprintf(w, "panic containment: %d requests to a model whose every kernel execution panics (threshold %d)\n", iters, threshold)
	fmt.Fprintf(w, "  ErrKernelPanic %d, ErrModelQuarantined %d, other %d; sibling model %d/%d ok\n",
		panics, quarantined, other, siblingOK, iters)
	if st.Faults != nil {
		fmt.Fprintf(w, "  runtime fault counters: panics=%d quarantines=%d quarantined=%v\n",
			st.Faults.Panics, st.Faults.Quarantines, st.Faults.Quarantined)
	}
	if panics != threshold || quarantined != iters-threshold || other != 0 || siblingOK != iters {
		return fmt.Errorf("chaos: panic containment violated: panics=%d (want %d) quarantined=%d (want %d) other=%d sibling=%d/%d",
			panics, threshold, quarantined, iters-threshold, other, siblingOK, iters)
	}
	fmt.Fprintf(w, "  SLO PASS: panics typed and capped at threshold, model quarantined, sibling unaffected, process alive\n\n")
	return nil
}

// chaosHedgePhase measures hedged routing against a degraded node.
func chaosHedgePhase(w io.Writer, env *Env) error {
	const (
		nodes     = 3
		k         = 2
		minModels = 6
		workers   = 1
		service   = 2 * time.Millisecond
		hedge     = 4 * time.Millisecond
		faultMS   = 100
		errorRate = 0.3
	)
	c, engines, err := startClusterWith(nodes, k, minModels, service, cluster.Config{HedgeDelay: hedge},
		func(node int, eng serving.Engine) serving.Engine {
			return chaos.New(eng, int64(1000+node))
		})
	if err != nil {
		return err
	}
	defer c.close()

	fmt.Fprintf(w, "hedged routing: %d-node K=%d cluster, %d models, hedge delay %v, window %v\n",
		nodes, k, len(c.models), hedge, env.LoadWindow)
	base := runClusterLoad(c, workers, env.LoadWindow)

	inj := engines[0].(*chaos.Injector)
	if _, err := inj.Arm(chaos.Rule{Effect: chaos.EffectLatency, LatencyMS: faultMS, Op: "predict"}); err != nil {
		return err
	}
	if _, err := inj.Arm(chaos.Rule{Effect: chaos.EffectError, Error: "overloaded", Probability: errorRate, Op: "predict"}); err != nil {
		return err
	}
	before := c.router.Stats().Cluster
	faulted := runClusterLoad(c, workers, env.LoadWindow)
	injected := inj.Injected()
	inj.Reset()

	fmt.Fprintf(w, "%-22s %-9s %-8s %-10s %-10s\n", "phase", "goodput", "failed", "p50", "p99")
	for _, row := range []struct {
		name string
		res  clusterResult
	}{
		{"fault-free", base},
		{fmt.Sprintf("node0 +%dms/%.0f%%err", faultMS, errorRate*100), faulted},
	} {
		fmt.Fprintf(w, "%-22s %-9.0f %-8d %-10v %-10v\n",
			row.name, row.res.Goodput(), row.res.Failed,
			row.res.Lat.Percentile(50).Round(time.Microsecond),
			row.res.Lat.Percentile(99).Round(time.Microsecond))
	}
	cs := c.router.Stats().Cluster
	hedges, wins := cs.Hedges-before.Hedges, cs.HedgeWins-before.HedgeWins
	fmt.Fprintf(w, "router: %d faults injected at node0; retries=%d hedges=%d hedge-wins=%d failovers=%d (faulted phase: hedges=%d wins=%d)\n",
		injected, cs.Retries, cs.Hedges, cs.HedgeWins, cs.Failovers, hedges, wins)

	baseP99 := base.Lat.Percentile(99)
	faultP99 := faulted.Lat.Percentile(99)
	fmt.Fprintf(w, "faulted p99 %v = %.2fx fault-free p99 %v (printed only)\n",
		faultP99.Round(time.Microsecond), float64(faultP99)/float64(max(baseP99, 1)), baseP99.Round(time.Microsecond))
	if injected == 0 {
		return fmt.Errorf("chaos: no fault was injected at node0; the faulted phase did not reach the degraded node")
	}
	if hedges == 0 || wins == 0 {
		return fmt.Errorf("chaos: the faulted phase fired %d hedges and won %d; hedging never routed around the degraded node", hedges, wins)
	}
	if faulted.Failed != 0 {
		return fmt.Errorf("chaos: %d predictions failed with one degraded node; hedges and retries must absorb its faults", faulted.Failed)
	}
	fmt.Fprintf(w, "verdict PASS: %d hedges fired and %d won against the degraded node, 0 failed\n", hedges, wins)
	return nil
}
