package bench

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"pretzel/internal/metrics"
	"pretzel/internal/oven"
	"pretzel/internal/runtime"
	"pretzel/internal/store"
	"pretzel/internal/vector"
)

// overloadResult is one open-loop run at a fixed arrival rate.
type overloadResult struct {
	Offered   int           // requests the pacer issued
	Completed int           // requests served successfully
	Shed      int           // requests shed at admission (ErrOverloaded)
	Failed    int           // any other failure (must stay 0)
	Window    time.Duration // wall-clock measurement window
	Lat       *metrics.Histogram
	HPLat     *metrics.Histogram // high-priority probe latencies
	HPCount   int
	HPFailed  int // high-priority probes shed or failed (must stay 0)
}

// Goodput is successfully served requests per second.
func (r overloadResult) Goodput() float64 {
	return float64(r.Completed) / r.Window.Seconds()
}

// ShedRate is the fraction of offered requests shed at admission.
func (r overloadResult) ShedRate() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.Shed) / float64(r.Offered)
}

// measureCapacity estimates the batch engine's closed-loop capacity
// (requests/s). The submitter pool is deep enough that the estimate
// approaches the service rate rather than 2/round-trip-latency — an
// open-loop sweep keyed to a latency-bound estimate would never
// actually overload the server.
func measureCapacity(rt *runtime.Runtime, names []string, input string, window time.Duration) float64 {
	const workers = 8
	var done int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	stop := time.Now().Add(window)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			in, out := vector.New(0), vector.New(0)
			n := int64(0)
			for i := 0; time.Now().Before(stop); i++ {
				in.SetText(input)
				tk, err := rt.SubmitRequestBatch(runtime.BatchRequest{
					Model: names[(w+i)%len(names)],
					Ins:   []*vector.Vector{in},
					Outs:  []*vector.Vector{out},
				})
				if err != nil {
					continue
				}
				if tk.Wait() == nil {
					n++
				}
			}
			mu.Lock()
			done += n
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return float64(done) / window.Seconds()
}

// openLoopRun offers best-effort traffic at a fixed arrival rate for
// one window — issuing requests on the pacer's schedule regardless of
// completions (open loop, the §5.3-style saturation methodology) — and
// concurrently probes with a trickle of high-priority requests. The
// admission plane decides per arrival: serve or shed with
// ErrOverloaded.
func openLoopRun(rt *runtime.Runtime, names []string, input string, rate float64, window time.Duration) overloadResult {
	res := overloadResult{Window: window, Lat: &metrics.Histogram{}, HPLat: &metrics.Histogram{}}
	var mu sync.Mutex
	var wg sync.WaitGroup

	// Best-effort pacer: every millisecond tick releases the arrivals
	// the rate owes (carrying the fractional remainder).
	start := time.Now()
	stop := start.Add(window)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	var owed float64
	i, ticks := 0, 0
	for now := range tick.C {
		if now.After(stop) {
			break
		}
		ticks++
		owed += rate * time.Millisecond.Seconds()
		for ; owed >= 1; owed-- {
			i++
			res.Offered++
			in, out := vector.New(0), vector.New(0)
			in.SetText(input)
			t0 := time.Now()
			tk, err := rt.SubmitRequestBatch(runtime.BatchRequest{Model: names[i%len(names)], Ins: []*vector.Vector{in}, Outs: []*vector.Vector{out}})
			if err != nil {
				if errors.Is(err, runtime.ErrOverloaded) {
					res.Shed++
				} else {
					// Failed is shared with the completion goroutines,
					// which update it under mu.
					mu.Lock()
					res.Failed++
					mu.Unlock()
				}
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				err := tk.Wait()
				d := time.Since(t0)
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					res.Failed++
					return
				}
				res.Completed++
				res.Lat.Record(d)
			}()
		}
		// High-priority probe: one reserved-traffic request every 5ms.
		if ticks%5 == 0 {
			in, out := vector.New(0), vector.New(0)
			in.SetText(input)
			t0 := time.Now()
			tk, err := rt.SubmitRequestBatch(runtime.BatchRequest{
				Model:    names[0],
				Ins:      []*vector.Vector{in},
				Outs:     []*vector.Vector{out},
				Priority: runtime.PriorityHigh,
			})
			if err == nil {
				err = tk.Wait()
			}
			if err != nil {
				res.HPFailed++
			} else {
				res.HPLat.Record(time.Since(t0))
				res.HPCount++
			}
		}
	}
	wg.Wait()
	return res
}

// runOverload is the open-loop overload experiment: it measures the
// stack's closed-loop capacity, then sweeps the offered arrival rate
// across it (0.5× to 4×) and reports goodput, shed rate and latency
// percentiles per point — the paper-style latency/throughput story
// under saturation, now with admission control keeping p99 flat and
// converting excess load into explicit ErrOverloaded sheds instead of
// unbounded queueing.
func runOverload(w io.Writer, env *Env) error {
	sa, err := env.SA()
	if err != nil {
		return err
	}
	names := planNames(sa.Files)
	n := len(names)
	if n > 4 {
		n = 4
	}
	names, files := names[:n], sa.Files[:n]
	input := sa.Set.TestInputs[0]

	// The pacer releases arrivals in 1ms ticks, so the in-flight limit
	// must absorb one sub-capacity tick's burst (arrivals/ms at 1×)
	// without shedding; past capacity the bursts outrun the drain and
	// admission clips them — the behavior under test.
	const maxInFlight, reservedHP = 512, 64
	objStore := store.New()
	rt := runtime.New(objStore, runtime.Config{
		Executors:            2,
		MaxInFlight:          maxInFlight,
		ReservedHighPriority: reservedHP,
	})
	defer rt.Close()
	if _, err := loadPretzel(rt, objStore, files, oven.DefaultOptions()); err != nil {
		return err
	}
	if err := warmRuntime(rt, names, input, 2); err != nil {
		return err
	}

	capacity := measureCapacity(rt, names, input, env.LoadWindow)
	fmt.Fprintf(w, "%d models, admission MaxInFlight=%d (%d reserved high-priority)\n", n, maxInFlight, reservedHP)
	fmt.Fprintf(w, "closed-loop capacity: %.0f req/s\n", capacity)
	fmt.Fprintf(w, "%-8s %-9s %-9s %-9s %-7s %-10s %-10s %-10s\n",
		"load", "offered", "goodput", "shed/s", "shed%", "p50", "p99", "hp-p99")
	for _, mult := range []float64{0.5, 1, 2, 4} {
		rate := capacity * mult
		if rate < 100 {
			rate = 100
		}
		res := openLoopRun(rt, names, input, rate, env.LoadWindow)
		if res.Failed > 0 {
			return fmt.Errorf("overload: %d requests failed outside admission", res.Failed)
		}
		fmt.Fprintf(w, "%-8s %-9.0f %-9.0f %-9.0f %-7.1f %-10v %-10v %-10v\n",
			fmt.Sprintf("%.1fx", mult),
			float64(res.Offered)/res.Window.Seconds(),
			res.Goodput(),
			float64(res.Shed)/res.Window.Seconds(),
			res.ShedRate()*100,
			res.Lat.Percentile(50).Round(time.Microsecond),
			res.Lat.Percentile(99).Round(time.Microsecond),
			res.HPLat.Percentile(99).Round(time.Microsecond))
	}
	ad := rt.AdmissionStats()
	fmt.Fprintf(w, "admission: in_flight=%d shed=%d (limit %d, %d reserved)\n",
		ad.InFlight, ad.Shed, ad.MaxInFlight, ad.ReservedHighPriority)
	hot := rt.ModelLoads()[names[0]]
	fmt.Fprintf(w, "model %s: served=%d shed=%d p50=%v p99=%v\n",
		names[0], hot.Latency.Count, hot.Shed,
		hot.Latency.P50().Round(time.Microsecond), hot.Latency.P99().Round(time.Microsecond))
	st := rt.SchedStats()
	fmt.Fprintf(w, "scheduler: submitted=%d completed=%d queue_high=%d queue_low=%d\n",
		st.Submitted, st.Completed, st.QueueHigh, st.QueueLow)
	fmt.Fprintf(w, "(best-effort arrivals past the in-flight limit are shed at admission with\n")
	fmt.Fprintf(w, " ErrOverloaded; reserved high-priority probes keep their latency throughout)\n")
	return nil
}
