// Command benchgate is the CI benchmark-regression gate: it parses
// `go test -bench` output, writes the measured throughput to a JSON
// artifact, and fails (exit 1) when any gated benchmark's throughput
// dropped more than -threshold below the committed baseline.
//
// Usage:
//
//	go test . -run xxx -bench 'BenchmarkBatchStage/batch=64' -count=2 | tee bench.out
//	benchgate -baseline BENCH_baseline.json -out BENCH_ci.json bench.out
//
//	benchgate -baseline BENCH_baseline.json -update bench.out   # regenerate the baseline
//
// With no file argument the bench output is read from stdin.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"

	"pretzel/internal/bench"
)

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_baseline.json", "committed baseline artifact")
		outPath      = flag.String("out", "", "write the current run's artifact here (uploaded by CI)")
		update       = flag.Bool("update", false, "rewrite the baseline from this run instead of gating")
		threshold    = flag.Float64("threshold", 0.25, "maximum tolerated relative throughput drop")
		gateExpr     = flag.String("gate", `^BenchmarkBatchStage/`, "regexp of gated benchmark names")
		note         = flag.String("note", "", "note stored in the artifact")
	)
	flag.Parse()

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	current, err := bench.ParseBenchOutput(in)
	if err != nil {
		fatal(err)
	}

	writeArtifact := func(path string) {
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := bench.WriteBenchArtifact(f, *note, current); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if *outPath != "" {
		writeArtifact(*outPath)
		fmt.Printf("benchgate: wrote %d benchmarks to %s\n", len(current), *outPath)
	}
	if *update {
		writeArtifact(*baselinePath)
		fmt.Printf("benchgate: baseline %s updated (%d benchmarks)\n", *baselinePath, len(current))
		return
	}

	bf, err := os.Open(*baselinePath)
	if err != nil {
		fatal(fmt.Errorf("opening baseline (run with -update to create it): %w", err))
	}
	baseline, err := bench.ReadBenchArtifact(bf)
	bf.Close()
	if err != nil {
		fatal(err)
	}
	gate, err := regexp.Compile(*gateExpr)
	if err != nil {
		fatal(fmt.Errorf("bad -gate: %w", err))
	}
	findings := bench.CompareBenchmarks(baseline, current, gate, *threshold)
	if len(findings) == 0 {
		fatal(fmt.Errorf("gate %q matches no baseline benchmark", *gateExpr))
	}
	failed := 0
	for _, f := range findings {
		switch {
		case f.Missing:
			failed++
			fmt.Printf("FAIL %-45s missing from this run (baseline %.0f)\n", f.Name, f.Baseline)
		case f.Failed:
			failed++
			fmt.Printf("FAIL %-45s %.0f -> %.0f (%+.1f%%, limit -%.0f%%)\n",
				f.Name, f.Baseline, f.Current, f.Delta*100, *threshold*100)
		default:
			fmt.Printf("ok   %-45s %.0f -> %.0f (%+.1f%%)\n", f.Name, f.Baseline, f.Current, f.Delta*100)
		}
	}
	if failed > 0 {
		fmt.Printf("benchgate: %d/%d gated benchmarks regressed past %.0f%%\n", failed, len(findings), *threshold*100)
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d gated benchmarks within threshold\n", len(findings))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
