package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"pretzel/internal/workload"
)

// sharedEnv is built once: workload generation dominates test time.
var sharedEnv = func() *Env {
	e := QuickEnv()
	e.LoadPoints = []int{100}
	e.LoadWindow = 150 * time.Millisecond
	e.HotIters = 5
	return e
}()

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 22 {
		t.Fatalf("expected 22 experiments, have %d", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
	for _, id := range []string{"table1", "fig3", "fig4", "fig5", "coldsplit", "fig8",
		"fig9", "fig10", "fig11", "fig12", "fig13", "reservation",
		"fig14", "deadline", "batchsweep", "parscale", "overload", "density"} {
		if _, ok := Get(id); !ok {
			t.Fatalf("missing experiment %s", id)
		}
	}
	if _, ok := Get("nope"); ok {
		t.Fatal("unknown id must not resolve")
	}
}

func TestRunUnknown(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(&buf, sharedEnv, "zzz"); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

// TestAllExperimentsQuick executes every driver at quick scale; this is
// the harness's own integration test.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep skipped in -short")
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Run(&buf, sharedEnv, e.ID); err != nil {
				t.Fatalf("%s: %v\noutput so far:\n%s", e.ID, err, buf.String())
			}
			out := buf.String()
			if !strings.Contains(out, e.ID) || len(out) < 80 {
				t.Fatalf("%s: suspiciously small output:\n%s", e.ID, out)
			}
		})
	}
}

func TestEnvAssetsCached(t *testing.T) {
	e := QuickEnv()
	e.Scale = workload.SmallScale()
	a, err := e.SA()
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.SA()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("SA assets must be cached")
	}
	c, err := e.AC()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Files) != e.Scale.ACCount {
		t.Fatalf("ac files=%d", len(c.Files))
	}
	// Every exported file must re-import.
	p, err := importFile(a.Files[0])
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != a.Set.Pipelines[0].Name {
		t.Fatal("name mismatch after import")
	}
}

func TestPlanNames(t *testing.T) {
	got := planNames([]string{"/tmp/x/sa-001.zip", "ac-000.zip"})
	if got[0] != "sa-001" || got[1] != "ac-000" {
		t.Fatalf("planNames: %v", got)
	}
}

func TestSortedCopy(t *testing.T) {
	in := []float64{3, 1, 2}
	out := sortedCopy(in)
	if out[0] != 1 || out[2] != 3 || in[0] != 3 {
		t.Fatal("sortedCopy must sort a copy")
	}
}
