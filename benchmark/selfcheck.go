package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns what Python's statistics.quantiles(xs, n=4) does.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		pos := float64(i) * float64(len(s)+1) / 4
		j := min(max(int(pos), 1), len(s)-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// selfCheck does what the driver does before it accepts the benchmark:
// two sets of n runs of every workload, each run its own process with
// its own seed, the workloads interleaved so that a noisy minute on a
// shared host lands on all of them. For every end-to-end metric of
// every workload it prints both medians, both spreads (distance between
// the quartiles as a share of the median) and the bound that twice the
// larger spread would ask for, and it fails when a spread exceeds the
// metric's bound in BENCHMARK.json (setup_s excepted, as the driver
// does) or the second median is worse than the first by more than it.
func selfCheck(n int, seconds float64, only string, w io.Writer) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	todo := specs
	if sp, ok := specByName(only); ok {
		todo = []spec{sp}
	}
	// values[set][workload][metric] collects one number per run.
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for i := 0; i < n; i++ {
			for _, sp := range todo {
				seed := 1000*(set+1) + i
				cmd := exec.Command(self, "--workload", sp.name, "--seed", strconv.Itoa(seed),
					"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
				var stdout, stderr bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("%s seed %d: %w\n%s", sp.name, seed, err, stderr.Bytes())
				}
				lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte{'\n'})
				var res result
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					return fmt.Errorf("%s seed %d: result line: %w", sp.name, seed, err)
				}
				if !res.Correct || res.Failed > 0 {
					return fmt.Errorf("%s seed %d: correct=%v failed=%d", sp.name, seed, res.Correct, res.Failed)
				}
				if values[set][sp.name] == nil {
					values[set][sp.name] = map[string][]float64{}
				}
				for name, m := range res.Metrics {
					values[set][sp.name][name] = append(values[set][sp.name][name], m.Value)
				}
				fmt.Fprintf(w, "set %d run %d %s done\n", set+1, i+1, sp.name)
			}
		}
	}
	bad := 0
	fmt.Fprintf(w, "%-15s %-16s %12s %7s %12s %7s %7s %6s %6s\n", "workload", "metric", "median1", "iqr1", "median2", "iqr2", "shift", "bound", "asks")
	for _, sp := range todo {
		for _, m := range bf.EndToEnd {
			fmt.Fprintf(w, "# %s %s %.4g | %.4g\n", sp.name, m.Name, values[0][sp.name][m.Name], values[1][sp.name][m.Name])
			a1, m1, b1 := quartiles(values[0][sp.name][m.Name])
			a2, m2, b2 := quartiles(values[1][sp.name][m.Name])
			s1, s2 := ratio(b1-a1, m1), ratio(b2-a2, m2)
			shift := ratio(m2-m1, m1) // positive = worse
			if m.Better == "higher" {
				shift = -shift
			}
			asks := math.Max(0.10, math.Ceil(2*math.Max(s1, s2)/0.05)*0.05)
			verdict := ""
			if (m.Name != "setup_s" && math.Max(s1, s2) > m.Bound) || shift > m.Bound {
				verdict = "  FAIL"
				bad++
			} else if m.Name != "setup_s" && math.Max(s1, s2) > m.Bound/3 {
				verdict = "  wide"
			}
			fmt.Fprintf(w, "%-15s %-16s %12.4f %6.1f%% %12.4f %6.1f%% %+6.1f%% %6.2f %6.2f%s\n",
				sp.name, m.Name, m1, 100*s1, m2, 100*s2, 100*shift, m.Bound, asks, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("self-check: %d metric/workload pairs outside their bounds", bad)
	}
	return nil
}
