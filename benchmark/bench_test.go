package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

// digest hashes everything a seed decides.
func digest(s *stream) [32]byte {
	h := sha256.New()
	for _, r := range s.reqs {
		h.Write(r)
	}
	for _, k := range s.order {
		fmt.Fprintln(h, k)
	}
	fmt.Fprintln(h, s.sweep, s.publish)
	for _, j := range s.jobs {
		fmt.Fprintln(h, j.model, j.inputs)
	}
	return [32]byte(h.Sum(nil))
}

// TestSeedDiscipline: the same seed gives byte-identical requests and
// schedules, another seed gives others, the model assets do not depend
// on the seed, and nothing the node is given names a workload.
func TestSeedDiscipline(t *testing.T) {
	for _, name := range []string{"mixed-short", "longtail-churn"} {
		sp, _ := specByName(name)
		cat, err := buildCatalog(sp.catalog)
		if err != nil {
			t.Fatal(err)
		}
		var streams []*stream
		for _, seed := range []int64{7, 7, 8} {
			s, err := buildStream(cat, sp, seed)
			if err != nil {
				t.Fatal(err)
			}
			streams = append(streams, s)
		}
		if digest(streams[0]) != digest(streams[1]) {
			t.Errorf("%s: seed 7 twice gave different request streams", name)
		}
		if digest(streams[0]) == digest(streams[2]) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", name)
		}
		again, err := buildCatalog(sp.catalog)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range cat.models {
			if !bytes.Equal(m.zip, again.models[i].zip) {
				t.Fatalf("%s: model %s is not the same on a second build", name, m.name)
			}
		}
		for _, other := range specs {
			for _, m := range cat.models {
				if strings.Contains(m.name, other.name) {
					t.Errorf("model name %q contains workload name %q", m.name, other.name)
				}
			}
			for _, r := range streams[0].reqs {
				if bytes.Contains(r, []byte(other.name)) {
					t.Fatalf("%s: a request contains workload name %q", name, other.name)
				}
			}
		}
	}
}

// TestBenchmarkFile: BENCHMARK.json names exactly the workloads and
// metrics this program prints.
func TestBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	}
	var bf struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []entry, want []named) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d, the program %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	var names []named
	for _, sp := range specs {
		names = append(names, named{sp.name, ""})
	}
	same("workloads", bf.Workloads, names)
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer())
	var setup float64
	for _, m := range bf.EndToEnd {
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	for _, m := range bf.EndToEnd {
		if m.Bound < 0.10 || m.Bound > 0.25 || m.Bound > setup {
			t.Errorf("%s: bound %.2f outside [0.10, 0.25] or above setup_s's %.2f", m.Name, m.Bound, setup)
		}
	}
}

// TestSmoke runs every workload end to end and traced with very short
// phases. The numbers mean nothing; the test checks that every answer
// was right, every metric is reported, and the properties that tell
// the workloads apart hold. With BENCH_FULL=1 the phases have their
// real length and the timing properties (who dominates the latency
// budget, whether it adds up) are asserted too.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts 16 nodes")
	}
	seconds, full := 1.5, os.Getenv("BENCH_FULL") != ""
	if full {
		seconds = 15
	}
	workDir = t.TempDir()
	var log io.Writer = io.Discard
	if testing.Verbose() {
		log = os.Stderr
	}
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			res, contrasts, err := run(sp, 3, seconds, traced, t.TempDir(), log)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sp.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", sp.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer()
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", sp.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s traced=%v: metric %s missing or in %q, want %q", sp.name, traced, m.name, got.Unit, m.unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", sp.name, m.name, got.Value)
				}
			}
			for _, c := range contrasts {
				if !c.ok && (full || !c.timing) {
					t.Errorf("%s: %s does not hold: %s", sp.name, c.name, c.detail)
				}
			}
		}
	}
}
