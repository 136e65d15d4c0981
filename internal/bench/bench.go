// Package bench is the experiment harness: one driver per table and
// figure of the paper's evaluation (§5), regenerating the same rows and
// series. Experiments is the index (pretzel-bench -list prints it).
package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"pretzel/internal/metrics"
	"pretzel/internal/oven"
	"pretzel/internal/pipeline"
	"pretzel/internal/runtime"
	"pretzel/internal/store"
	"pretzel/internal/workload"
)

// Env carries the shared experiment configuration and lazily built
// workload assets.
type Env struct {
	Scale      workload.Scale
	Cores      []int // core sweep for fig12
	LoadPoints []int // offered load sweep (requests/s) for fig13/fig14
	HotIters   int   // hot-latency sample count per model
	LoadWindow time.Duration
	Quick      bool
	ModelDir   string

	mu sync.Mutex
	sa *SAAssets
	ac *ACAssets
}

// SAAssets bundles the SA workload with its exported model files.
type SAAssets struct {
	Set   *workload.SASet
	Files []string
}

// ACAssets bundles the AC workload with its exported model files.
type ACAssets struct {
	Set   *workload.ACSet
	Files []string
}

// QuickEnv is the reduced configuration used by tests and -quick runs.
func QuickEnv() *Env {
	return &Env{
		Scale:      workload.SmallScale(),
		Cores:      []int{1, 2},
		LoadPoints: []int{50, 200},
		HotIters:   20,
		LoadWindow: 300 * time.Millisecond,
		Quick:      true,
	}
}

// FullEnv is the evaluation configuration (250+250 pipelines).
func FullEnv() *Env {
	return &Env{
		Scale:      workload.BenchScale(),
		Cores:      []int{1, 2, 4, 8, 13},
		LoadPoints: []int{100, 200, 300, 400, 500},
		HotIters:   100,
		LoadWindow: 2 * time.Second,
	}
}

// modelDir lazily creates the export directory.
func (e *Env) modelDir() (string, error) {
	if e.ModelDir != "" {
		return e.ModelDir, nil
	}
	dir, err := os.MkdirTemp("", "pretzel-models-")
	if err != nil {
		return "", err
	}
	e.ModelDir = dir
	return dir, nil
}

// SA builds (once) the SA workload and its exported model files.
func (e *Env) SA() (*SAAssets, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.sa != nil {
		return e.sa, nil
	}
	set, err := workload.BuildSA(e.Scale)
	if err != nil {
		return nil, err
	}
	files, err := exportAll(e, set.Pipelines)
	if err != nil {
		return nil, err
	}
	e.sa = &SAAssets{Set: set, Files: files}
	return e.sa, nil
}

// AC builds (once) the AC workload and its exported model files.
func (e *Env) AC() (*ACAssets, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ac != nil {
		return e.ac, nil
	}
	set, err := workload.BuildAC(e.Scale)
	if err != nil {
		return nil, err
	}
	files, err := exportAll(e, set.Pipelines)
	if err != nil {
		return nil, err
	}
	e.ac = &ACAssets{Set: set, Files: files}
	return e.ac, nil
}

// exportAll writes each pipeline to its own model file (the ML.Net-style
// model repository every configuration loads from).
func exportAll(e *Env, ps []*pipeline.Pipeline) ([]string, error) {
	dir, err := e.modelDir()
	if err != nil {
		return nil, err
	}
	files := make([]string, len(ps))
	for i, p := range ps {
		path := filepath.Join(dir, p.Name+".zip")
		if _, err := os.Stat(path); err == nil {
			files[i] = path
			continue
		}
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		if err := p.Export(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("bench: exporting %s: %w", p.Name, err)
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		files[i] = path
	}
	return files, nil
}

// importFile loads a pipeline from its model file (fresh parameter
// objects, as a black-box serving system would see them).
func importFile(path string) (*pipeline.Pipeline, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return pipeline.ImportBytes(b)
}

// loadPretzel imports, compiles and registers a set of model files into
// a runtime, returning the wall-clock load time. With an Object Store the
// loader imports through its raw index and the plans share stages
// through the runtime's plan store, as on the server.
func loadPretzel(rt *runtime.Runtime, objStore *store.ObjectStore, files []string, opts oven.Options) (time.Duration, error) {
	if objStore != nil {
		opts.Plans = rt.PlanStore()
	}
	t0 := time.Now()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return 0, err
		}
		p, err := pipeline.ImportIndexed(b, objStore)
		if err != nil {
			return 0, err
		}
		pl, err := oven.Compile(p, objStore, opts)
		if err != nil {
			return 0, fmt.Errorf("bench: compiling %s: %w", p.Name, err)
		}
		if _, err := rt.Register(pl); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// Experiment is one table/figure driver.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer, env *Env) error
}

// Experiments returns all drivers in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Table 1: pipeline characteristics", runTable1},
		{"fig3", "Figure 3: operator sharing across 250 SA pipelines", runFig3},
		{"fig4", "Figure 4: cold vs hot latency CDF (black-box baseline)", runFig4},
		{"fig5", "Figure 5: per-operator latency breakdown (SA)", runFig5},
		{"coldsplit", "§2: cold prediction time split (init / JIT / compute)", runColdSplit},
		{"fig8", "Figure 8: cumulative memory usage + load times", runFig8},
		{"fig9", "Figure 9: latency CDFs, PRETZEL vs ML.Net (hot/cold)", runFig9},
		{"fig10", "Figure 10: sub-plan materialization speedup (SA)", runFig10},
		{"fig11", "Figure 11: end-to-end HTTP latency vs containers", runFig11},
		{"fig12", "Figure 12: throughput scaling with cores", runFig12},
		{"fig13", "Figure 13: heavy load (micro): throughput + latency", runFig13},
		{"reservation", "§5.4.1: reservation-based scheduling under load", runReservation},
		{"fig14", "Figure 14: heavy load end-to-end vs containers", runFig14},
		{"deadline", "deadline-aware scheduling: expired jobs shed before dispatch", runDeadline},
		{"batchsweep", "batch engine: records/s vs batch size", runBatchSweep},
		{"parscale", "data-parallel batch execution: one batch job's rec/s + fan-out speedup vs cores", runParscale},
		{"overload", "admission-controlled overload: open-loop goodput, shed rate, p99 across capacity", runOverload},
		{"cluster", "sharded cluster tier: aggregate goodput + p99 vs node count at fixed per-node capacity", runClusterExp},
		{"chaos", "fault containment: panic quarantine + hedged routing under injected faults", runChaosExp},
		{"longtail", "model storage tier: goodput + cold-start latency vs RAM-budget fraction under Zipf traffic", runLongtail},
		{"churn", "placement plane: tail latency + success through node kill/join, warm-aware vs hash-only", runChurnExp},
		{"density", "model density: N final-layer variants on one node, marginal bytes/variant with object + plan store sharing", runDensity},
	}
}

// Get returns the driver with the given id.
func Get(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Run executes one experiment by id.
func Run(w io.Writer, env *Env, id string) error {
	e, ok := Get(id)
	if !ok {
		return fmt.Errorf("bench: unknown experiment %q (have %v)", id, ids())
	}
	fmt.Fprintf(w, "=== %s — %s ===\n", e.ID, e.Title)
	t0 := time.Now()
	if err := e.Run(w, env); err != nil {
		return fmt.Errorf("bench: %s: %w", id, err)
	}
	fmt.Fprintf(w, "--- %s done in %v ---\n\n", e.ID, time.Since(t0).Round(time.Millisecond))
	return nil
}

func ids() []string {
	var out []string
	for _, e := range Experiments() {
		out = append(out, e.ID)
	}
	return out
}

// --- small formatting helpers ---

// mb renders bytes as MiB.
func mb(n uint64) string { return fmt.Sprintf("%.1fMB", float64(n)/(1<<20)) }

// printCDF renders an n-point CDF on one line.
func printCDF(w io.Writer, label string, rec *metrics.Recorder, points int) {
	pts := rec.CDF(points)
	fmt.Fprintf(w, "%-28s", label)
	for _, p := range pts {
		fmt.Fprintf(w, " %3.0f%%:%-9v", p.Frac*100, p.Value.Round(time.Microsecond))
	}
	fmt.Fprintln(w)
}

// summarize prints count/p50/p99/worst for a recorder.
func summarize(w io.Writer, label string, rec *metrics.Recorder) {
	fmt.Fprintf(w, "%-28s n=%-5d p50=%-10v p99=%-10v worst=%v\n",
		label, rec.Count(),
		rec.Percentile(50).Round(time.Microsecond),
		rec.Percentile(99).Round(time.Microsecond),
		rec.Max().Round(time.Microsecond))
}

// sortedCopy returns a sorted copy of durations in float64 milliseconds.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}
