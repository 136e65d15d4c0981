package bench

import (
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"pretzel/internal/blackbox"
	"pretzel/internal/metrics"
	"pretzel/internal/vector"
)

// runTable1 reports the pipeline characteristics of Table 1: input type,
// exported model size range and featurizer composition per category.
func runTable1(w io.Writer, env *Env) error {
	sa, err := env.SA()
	if err != nil {
		return err
	}
	ac, err := env.AC()
	if err != nil {
		return err
	}
	row := func(name, input string, files []string, featurizers string) error {
		var min, max, sum int64
		min = 1 << 62
		for _, f := range files {
			st, err := os.Stat(f)
			if err != nil {
				return err
			}
			sz := st.Size()
			sum += sz
			if sz < min {
				min = sz
			}
			if sz > max {
				max = sz
			}
		}
		mean := sum / int64(len(files))
		fmt.Fprintf(w, "%-22s input=%-28s size=%s-%s (mean %s)  featurizers: %s\n",
			name, input, mb(uint64(min)), mb(uint64(max)), mb(uint64(mean)), featurizers)
		return nil
	}
	if err := row(fmt.Sprintf("Sentiment Analysis x%d", len(sa.Files)),
		"plain text (variable length)", sa.Files,
		"N-gram with dictionaries"); err != nil {
		return err
	}
	return row(fmt.Sprintf("Attendee Count x%d", len(ac.Files)),
		fmt.Sprintf("structured (%d dims)", ac.Set.Dim), ac.Files,
		"PCA, KMeans, TreeFeaturizer, ensembles")
}

// runFig3 reports operator sharing across the SA pipelines: versions per
// operator class, how many pipelines use each, and parameter sizes.
func runFig3(w io.Writer, env *Env) error {
	sa, err := env.SA()
	if err != nil {
		return err
	}
	n := len(sa.Set.Pipelines)
	fmt.Fprintf(w, "%-12s %-10s %-12s %s\n", "operator", "version", "pipelines", "size")
	fmt.Fprintf(w, "%-12s %-10s %-12d %s\n", "Tokenize", "v1", n, "369B")
	fmt.Fprintf(w, "%-12s %-10s %-12d %s\n", "Concat", "v1", n, "328B")
	charUse := map[int]int{}
	wordUse := map[int]int{}
	for _, info := range sa.Set.Info {
		charUse[info.CharVersion]++
		wordUse[info.WordVersion]++
	}
	for v, d := range sa.Set.CharDicts {
		fmt.Fprintf(w, "%-12s c%-9d %-12d %s\n", "CharNgram", v+1, charUse[v], mb(uint64(d.MemBytes())))
	}
	for v, d := range sa.Set.WordDicts {
		fmt.Fprintf(w, "%-12s w%-9d %-12d %s\n", "WordNgram", v+1, wordUse[v], mb(uint64(d.MemBytes())))
	}
	fmt.Fprintf(w, "%-12s %-10s %-12s %s\n", "LinearModel", "unique", fmt.Sprintf("%d versions", n), "one per pipeline")
	return nil
}

// runFig4 measures the cold vs hot latency CDF of all SA pipelines on
// the black-box baseline, as Fig. 4 does to motivate the system.
func runFig4(w io.Writer, env *Env) error {
	sa, err := env.SA()
	if err != nil {
		return err
	}
	eng := blackbox.NewEngine()
	for i, f := range sa.Files {
		if err := eng.LoadFile(sa.Set.Pipelines[i].Name, f); err != nil {
			return err
		}
	}
	cold := metrics.NewRecorder(len(sa.Files))
	hot := metrics.NewRecorder(len(sa.Files) * env.HotIters)
	in, out := vector.New(0), vector.New(0)
	input := sa.Set.TestInputs[0]
	for _, p := range sa.Set.Pipelines {
		in.SetText(input)
		t0 := time.Now()
		if err := eng.Predict(p.Name, in, out); err != nil {
			return err
		}
		cold.Record(time.Since(t0))
		for k := 0; k < 10; k++ { // discard warmup
			if err := eng.Predict(p.Name, in, out); err != nil {
				return err
			}
		}
		var sum time.Duration
		for k := 0; k < env.HotIters; k++ {
			t1 := time.Now()
			if err := eng.Predict(p.Name, in, out); err != nil {
				return err
			}
			sum += time.Since(t1)
		}
		hot.Record(sum / time.Duration(env.HotIters))
	}
	summarize(w, "blackbox cold", cold)
	summarize(w, "blackbox hot", hot)
	printCDF(w, "cold CDF", cold, 10)
	printCDF(w, "hot  CDF", hot, 10)
	ratio := float64(cold.Percentile(99)) / float64(hot.Percentile(99))
	fmt.Fprintf(w, "p99 cold/hot ratio: %.1fx (paper: ~35x at full dictionary scale)\n", ratio)
	return nil
}

// runFig5 reports the per-operator latency breakdown of one hot SA
// pipeline on the baseline (Fig. 5: CharNgram 23.1%, WordNgram 34.2%,
// Concat 32.7%, LinReg 0.3%, others the rest).
func runFig5(w io.Writer, env *Env) error {
	sa, err := env.SA()
	if err != nil {
		return err
	}
	eng := blackbox.NewEngine()
	var mu sync.Mutex
	totals := map[string]time.Duration{}
	eng.PerOpTimings = func(model string, kinds []string, d []time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		for i, k := range kinds {
			totals[k] += d[i]
		}
	}
	name := sa.Set.Pipelines[0].Name
	if err := eng.LoadFile(name, sa.Files[0]); err != nil {
		return err
	}
	in, out := vector.New(0), vector.New(0)
	in.SetText(sa.Set.TestInputs[0])
	// Warm, then clear and measure.
	for k := 0; k < 10; k++ {
		if err := eng.Predict(name, in, out); err != nil {
			return err
		}
	}
	mu.Lock()
	totals = map[string]time.Duration{}
	mu.Unlock()
	for k := 0; k < env.HotIters; k++ {
		if err := eng.Predict(name, in, out); err != nil {
			return err
		}
	}
	mu.Lock()
	defer mu.Unlock()
	var grand time.Duration
	for _, d := range totals {
		grand += d
	}
	type kv struct {
		k string
		d time.Duration
	}
	var rows []kv
	for k, d := range totals {
		rows = append(rows, kv{k, d})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].d > rows[j].d })
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %5.1f%%  (%v total over %d runs)\n",
			r.k, 100*float64(r.d)/float64(grand), r.d.Round(time.Microsecond), env.HotIters)
	}
	return nil
}

// runColdSplit reports the §2 cold-prediction split: pipeline analysis /
// function-chain+JIT / compute (paper: 57.4% / 36.5% / 6.1%).
func runColdSplit(w io.Writer, env *Env) error {
	sa, err := env.SA()
	if err != nil {
		return err
	}
	eng := blackbox.NewEngine()
	name := sa.Set.Pipelines[0].Name
	if err := eng.LoadFile(name, sa.Files[0]); err != nil {
		return err
	}
	in, out := vector.New(0), vector.New(0)
	in.SetText(sa.Set.TestInputs[0])
	t0 := time.Now()
	if err := eng.Predict(name, in, out); err != nil {
		return err
	}
	total := time.Since(t0)
	cs, err := eng.ColdStatsFor(name)
	if err != nil {
		return err
	}
	compute := total - cs.Total()
	if compute < 0 {
		compute = 0
	}
	pct := func(d time.Duration) float64 { return 100 * float64(d) / float64(total) }
	fmt.Fprintf(w, "cold prediction total: %v\n", total.Round(time.Microsecond))
	fmt.Fprintf(w, "  init (param materialization): %5.1f%%  (%v)\n", pct(cs.Init), cs.Init.Round(time.Microsecond))
	fmt.Fprintf(w, "  analysis + chain ('JIT'):     %5.1f%%  (%v)\n", pct(cs.Analyze+cs.Chain), (cs.Analyze + cs.Chain).Round(time.Microsecond))
	fmt.Fprintf(w, "  compute:                      %5.1f%%  (%v)\n", pct(compute), compute.Round(time.Microsecond))
	fmt.Fprintf(w, "(paper: 57.4%% init+analysis, 36.5%% JIT, ~6%% compute)\n")
	return nil
}
