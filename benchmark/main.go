// Command benchmark measures the pretzel serving stack end to end and
// layer by layer. See README.md beside this file; BENCHMARK.json at the
// root of the repository names the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run (default: every workload, end to end and traced)")
		seed      = flag.Int64("seed", 1, "seed of the request streams")
		seconds   = flag.Float64("seconds", 15, "how long one run measures")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
		out       = flag.String("out", filepath.Join("benchmark", "out"), "directory for trace files")
		selfcheck = flag.Int("selfcheck", 0, "run two sets of this many runs per workload and compare them with the bounds of BENCHMARK.json")
	)
	flag.Parse()
	if *selfcheck > 0 {
		if err := selfCheck(*selfcheck, *seconds, *workload, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	var todo []spec
	if *workload == "" {
		todo = specs
	} else if sp, ok := specByName(*workload); ok {
		todo = []spec{sp}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	traces := []bool{*trace == 1}
	if *workload == "" {
		traces = []bool{false, true}
	}
	ok := true
	for _, sp := range todo {
		for _, tr := range traces {
			res, _, err := run(sp, *seed, *seconds, tr, *out, os.Stderr)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				os.Exit(1)
			}
			line, err := json.Marshal(res)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				os.Exit(1)
			}
			fmt.Println(string(line))
			ok = ok && res.Correct
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// workDir is where runs keep their model repositories: inside the
// checkout, beside the build.
var workDir = filepath.Join(".bench_build", "work")

// run makes one run of one workload and returns its result line and,
// for a traced run, the workload-contrast properties. Everything a
// person reads goes to log.
func run(sp spec, seed int64, seconds float64, traced bool, out string, log io.Writer) (result, []contrast, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return result{}, nil, err
	}
	work, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return result{}, nil, err
	}
	defer os.RemoveAll(work)
	b := &bench{sp: sp, seed: seed, seconds: seconds, log: log, work: work, out: out}
	if err := b.prepare(); err != nil {
		return result{}, nil, err
	}
	var values map[string]float64
	names := endToEnd
	if traced {
		names = perLayer()
		values, err = b.perLayer()
	} else {
		// The oracle's answers are all computed; without the pipelines
		// the collector has less of the benchmark's own heap to mark.
		for i := range b.cat.models {
			b.cat.models[i].pipe = nil
		}
		values, err = b.endToEnd()
	}
	if err != nil {
		return result{}, nil, err
	}
	res := result{
		Correct:   b.total.wrong == 0 && b.total.failed == 0,
		Attempted: b.total.attempted,
		Failed:    b.total.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range names {
		res.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
	}
	fmt.Fprintf(log, "total: attempted=%d failed=%d wrong=%d correct=%v\n", res.Attempted, res.Failed, b.total.wrong, res.Correct)
	return res, b.contrasts, nil
}
