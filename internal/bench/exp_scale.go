package bench

import (
	"fmt"
	"io"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"pretzel/internal/oven"
	"pretzel/internal/runtime"
	"pretzel/internal/store"
	"pretzel/internal/vector"
)

// runScale measures request-response throughput as cores scale, for the
// seed's contention profile (a single-shard, global-mutex vector pool)
// against the sharded pool (§4.2.1: the prediction path never
// serializes on cross-core synchronization). The shape mirrors Fig. 13:
// one curve per memory-management configuration, throughput on the y
// axis, parallelism on the x axis.
func runScale(w io.Writer, env *Env) error {
	sa, err := env.SA()
	if err != nil {
		return err
	}
	names := planNames(sa.Files)
	n := len(names)
	if n > 16 {
		n = 16
	}
	names, files := names[:n], sa.Files[:n]
	input := sa.Set.TestInputs[0]
	perCore := 20000
	if env.Quick {
		perCore = 2000
	}

	cores := env.Cores
	if max := goruntime.GOMAXPROCS(0); len(cores) == 0 || cores[len(cores)-1] < max {
		cores = append(append([]int(nil), cores...), max)
	}

	fmt.Fprintf(w, "request-response throughput (predictions/s), %d models, %d requests/core:\n", n, perCore)
	var oneSharded float64
	for _, c := range cores {
		global, err := predictThroughput(files, names, input, c, perCore*c, 1)
		if err != nil {
			return err
		}
		sharded, err := predictThroughput(files, names, input, c, perCore*c, 0)
		if err != nil {
			return err
		}
		if oneSharded == 0 {
			oneSharded = sharded / float64(c)
		}
		fmt.Fprintf(w, "  cores=%-3d global-pool=%-10.0f sharded-pool=%-10.0f ideal=%-10.0f speedup=%.2fx\n",
			c, global, sharded, oneSharded*float64(c), sharded/global)
	}
	return nil
}

// predictThroughput builds a fresh runtime with the given pool shard
// count (1 = the seed's global-mutex profile, 0 = one shard per core),
// then hammers Predict from `cores` goroutines and returns predictions/s.
func predictThroughput(files, names []string, input string, cores, total, poolShards int) (float64, error) {
	prev := goruntime.GOMAXPROCS(cores)
	defer goruntime.GOMAXPROCS(prev)

	objStore := store.New()
	rt := runtime.New(objStore, runtime.Config{Executors: 1, PoolShards: poolShards})
	defer rt.Close()
	if _, err := loadPretzel(rt, objStore, files, oven.DefaultOptions()); err != nil {
		return 0, err
	}
	if err := warmRuntime(rt, names, input, 2); err != nil {
		return 0, err
	}

	var next atomic.Int64
	var errMu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < cores; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in, out := vector.New(0), vector.New(0)
			for {
				i := next.Add(1) - 1
				if i >= int64(total) {
					return
				}
				in.SetText(input)
				if err := rt.PredictRequest(runtime.Request{Model: names[i%int64(len(names))], In: in, Out: out}); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0)
	if firstErr != nil {
		return 0, firstErr
	}
	return float64(total) / elapsed.Seconds(), nil
}
