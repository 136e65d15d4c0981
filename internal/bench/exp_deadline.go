package bench

import (
	"errors"
	"fmt"
	"io"
	"time"

	"pretzel/internal/oven"
	"pretzel/internal/runtime"
	"pretzel/internal/store"
	"pretzel/internal/vector"
)

// runDeadline measures deadline-aware scheduling on the batch engine:
// every request carries an absolute deadline, and the scheduler drops
// expired jobs before stage dispatch, so a saturated server sheds the
// work it can no longer finish in time instead of burning kernels on
// answers nobody is waiting for. Rows sweep the per-request budget from
// "none" down to "already expired"; the final line shows the
// scheduler's own white-box accounting of the same run.
func runDeadline(w io.Writer, env *Env) error {
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
	total := 4000
	if env.Quick {
		total = 400
	}

	objStore := store.New()
	rt := runtime.New(objStore, runtime.Config{Executors: 2})
	defer rt.Close()
	if _, err := loadPretzel(rt, objStore, files, oven.DefaultOptions()); err != nil {
		return err
	}
	if err := warmRuntime(rt, names, input, 2); err != nil {
		return err
	}

	budgets := []struct {
		label  string
		budget time.Duration // 0 = none, <0 = already expired
	}{
		{"none", 0},
		{"50ms", 50 * time.Millisecond},
		{"expired", -time.Millisecond},
	}
	fmt.Fprintf(w, "deadline-aware batch engine, %d models, %d requests per row:\n", n, total)
	for _, b := range budgets {
		completed, expired := 0, 0
		tickets := make([]*runtime.Ticket, 0, total)
		ins := make([]*vector.Vector, total)
		outs := make([]*vector.Vector, total)
		var deadline time.Time
		if b.budget != 0 {
			deadline = time.Now().Add(b.budget)
		}
		for i := 0; i < total; i++ {
			ins[i], outs[i] = vector.New(0), vector.New(0)
			ins[i].SetText(input)
			t, err := rt.SubmitRequestBatch(runtime.BatchRequest{
				Model:    names[i%len(names)],
				Ins:      ins[i : i+1],
				Outs:     outs[i : i+1],
				Deadline: deadline,
			})
			if err != nil {
				if errors.Is(err, runtime.ErrDeadlineExceeded) {
					expired++
					continue
				}
				return err
			}
			tickets = append(tickets, t)
		}
		for _, t := range tickets {
			switch err := t.Wait(); {
			case err == nil:
				completed++
			case errors.Is(err, runtime.ErrDeadlineExceeded):
				expired++
			default:
				return err
			}
		}
		fmt.Fprintf(w, "  budget=%-8s completed=%-6d expired=%-6d\n", b.label, completed, expired)
	}
	st := rt.SchedStats()
	fmt.Fprintf(w, "  scheduler: submitted=%d completed=%d failed=%d expired=%d\n",
		st.Submitted, st.Completed, st.Failed, st.Expired)
	fmt.Fprintf(w, "  (already-expired requests are rejected at admission, before the scheduler;\n")
	fmt.Fprintf(w, "   queued jobs are re-checked before every stage dispatch and shed on expiry)\n")
	return nil
}
