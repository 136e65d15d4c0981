package bench

import (
	"fmt"
	"io"
	goruntime "runtime"
	"time"

	"pretzel/internal/oven"
	"pretzel/internal/runtime"
	"pretzel/internal/store"
	"pretzel/internal/vector"
)

// runBatchSweep measures batch-engine record throughput as the batch
// size grows: scheduling, timing, metrics and cache probing are paid
// once per stage event, so records/s should climb with the batch
// (§4.2, §5.2 sub-linear batch scaling).
func runBatchSweep(w io.Writer, env *Env) error {
	sa, err := env.SA()
	if err != nil {
		return err
	}
	names := planNames(sa.Files)
	n := len(names)
	if n > 8 {
		n = 8
	}
	names, files := names[:n], sa.Files[:n]
	input := sa.Set.TestInputs[0]
	records := 16384
	if env.Quick {
		records = 4096
	}
	batches := []int{1, 8, 64, 256}

	objStore := store.New()
	rt := runtime.New(objStore, runtime.Config{Executors: goruntime.GOMAXPROCS(0)})
	defer rt.Close()
	if _, err := loadPretzel(rt, objStore, files, oven.DefaultOptions()); err != nil {
		return err
	}
	if err := warmRuntime(rt, names, input, 2); err != nil {
		return err
	}
	fmt.Fprintf(w, "batch-engine record throughput (records/s), %d models, %d records/point, %d executors:\n",
		n, records, goruntime.GOMAXPROCS(0))
	for _, bsz := range batches {
		// A window of concurrent jobs keeps every executor busy
		// regardless of batch size.
		const window = 8
		ins := make([][]*vector.Vector, window)
		outs := make([][]*vector.Vector, window)
		for s := 0; s < window; s++ {
			ins[s] = make([]*vector.Vector, bsz)
			outs[s] = make([]*vector.Vector, bsz)
			for i := 0; i < bsz; i++ {
				ins[s][i] = vector.New(0)
				ins[s][i].SetText(input)
				outs[s][i] = vector.New(0)
			}
		}
		// Untimed warm pass: grow pools and arenas for this batch
		// size before the measured window.
		for s := 0; s < window; s++ {
			tk, err := rt.SubmitRequestBatch(runtime.BatchRequest{
				Model: names[s%len(names)], Ins: ins[s], Outs: outs[s],
			})
			if err != nil {
				return err
			}
			if err := tk.Wait(); err != nil {
				return err
			}
		}
		done := 0
		t0 := time.Now()
		for done < records {
			tickets := make([]interface{ Wait() error }, 0, window)
			for s := 0; s < window && done < records; s++ {
				tk, err := rt.SubmitRequestBatch(runtime.BatchRequest{
					Model: names[(done/bsz)%len(names)],
					Ins:   ins[s],
					Outs:  outs[s],
				})
				if err != nil {
					return err
				}
				tickets = append(tickets, tk)
				done += bsz
			}
			for _, tk := range tickets {
				if err := tk.Wait(); err != nil {
					return err
				}
			}
		}
		fmt.Fprintf(w, "  batch=%-4d records/s=%.0f\n", bsz, float64(done)/time.Since(t0).Seconds())
	}
	return nil
}
