// Benchmark-regression gate: parse `go test -bench` output into
// per-benchmark throughput, persist it as a JSON artifact, and compare
// a current run against a committed baseline so CI fails when a gated
// benchmark's throughput drops past a threshold. The hot numbers this
// repo's PRs exist for (BenchmarkBatchStage* record throughput,
// BenchmarkDensityRegister registrations/s) are regression-gated on
// every push.
package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// BenchResult is one benchmark's measurement. Throughput is the gated
// quantity: the benchmark's own rate metric (e.g. "rec/s") when it
// reports one, otherwise operations per second derived from ns/op.
type BenchResult struct {
	NsPerOp    float64 `json:"ns_per_op"`
	Throughput float64 `json:"throughput"`
	Unit       string  `json:"unit"`
}

// BenchArtifact is the JSON document written for CI (BENCH_ci.json)
// and committed as the baseline (BENCH_baseline.json).
type BenchArtifact struct {
	// Note describes how the numbers were produced.
	Note       string                 `json:"note,omitempty"`
	Benchmarks map[string]BenchResult `json:"benchmarks"`
}

// procSuffix strips the testing package's "-N" GOMAXPROCS suffix so
// baselines compare across -cpu settings of the same benchmark name.
var procSuffix = regexp.MustCompile(`-\d+$`)

// ParseBenchOutput extracts benchmark results from `go test -bench`
// output. With -count > 1 the same benchmark appears multiple times;
// the BEST (highest-throughput) run wins, which is the standard way to
// damp scheduler noise in a gate.
func ParseBenchOutput(r io.Reader) (map[string]BenchResult, error) {
	out := make(map[string]BenchResult)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// name, iterations, then value/unit pairs.
		if len(fields) < 4 {
			continue
		}
		name := procSuffix.ReplaceAllString(fields[0], "")
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // not a result line (e.g. "BenchmarkFoo\t--- FAIL")
		}
		res := BenchResult{}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch unit := fields[i+1]; {
			case unit == "ns/op":
				res.NsPerOp = val
			case strings.HasSuffix(unit, "/s") && unit != "B/s":
				// A rate metric the benchmark reported itself
				// (rec/s, req/s, …) — prefer it over derived ops/s.
				res.Throughput = val
				res.Unit = unit
			}
		}
		if res.Throughput == 0 && res.NsPerOp > 0 {
			res.Throughput = 1e9 / res.NsPerOp
			res.Unit = "op/s"
		}
		if res.Throughput == 0 {
			continue
		}
		if prev, ok := out[name]; !ok || res.Throughput > prev.Throughput {
			out[name] = res
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("benchgate: no benchmark results found in input")
	}
	return out, nil
}

// GateFinding is one gated benchmark's verdict.
type GateFinding struct {
	Name     string
	Baseline float64
	Current  float64
	// Delta is the relative throughput change (negative = regression).
	Delta  float64
	Failed bool
	// Missing marks a gated baseline benchmark absent from the run.
	Missing bool
}

// CompareBenchmarks gates the current results against a baseline: every
// baseline benchmark whose name matches gate must be present and keep
// its throughput above (1 - threshold) × baseline. Results are sorted
// by name; callers fail CI when any finding has Failed set.
func CompareBenchmarks(baseline, current map[string]BenchResult, gate *regexp.Regexp, threshold float64) []GateFinding {
	var out []GateFinding
	names := make([]string, 0, len(baseline))
	for n := range baseline {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if gate != nil && !gate.MatchString(n) {
			continue
		}
		base := baseline[n]
		cur, ok := current[n]
		if !ok {
			out = append(out, GateFinding{Name: n, Baseline: base.Throughput, Failed: true, Missing: true})
			continue
		}
		delta := 0.0
		if base.Throughput > 0 {
			delta = (cur.Throughput - base.Throughput) / base.Throughput
		}
		out = append(out, GateFinding{
			Name:     n,
			Baseline: base.Throughput,
			Current:  cur.Throughput,
			Delta:    delta,
			Failed:   delta < -threshold,
		})
	}
	return out
}

// WriteBenchArtifact serializes results as the gate's JSON document.
func WriteBenchArtifact(w io.Writer, note string, results map[string]BenchResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(BenchArtifact{Note: note, Benchmarks: results})
}

// ReadBenchArtifact deserializes a gate JSON document.
func ReadBenchArtifact(r io.Reader) (map[string]BenchResult, error) {
	var a BenchArtifact
	if err := json.NewDecoder(r).Decode(&a); err != nil {
		return nil, fmt.Errorf("benchgate: decoding artifact: %w", err)
	}
	if len(a.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchgate: artifact has no benchmarks")
	}
	return a.Benchmarks, nil
}
