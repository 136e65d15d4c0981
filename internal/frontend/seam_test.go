package frontend_test

// The serving seam, end to end over HTTP: every optional capability
// (pin, warm, zip export, cluster membership, the quarantine report,
// the chaos rule API) answers the same through any stack of middlewares
// as it does on the engine that implements it — and 501/409 when no
// engine in the stack does.

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"pretzel/internal/chaos"
	"pretzel/internal/cluster"
	"pretzel/internal/frontend"
	"pretzel/internal/lifecycle"
	"pretzel/internal/repo"
	"pretzel/internal/runtime"
	"pretzel/internal/serving"
	"pretzel/internal/store"
)

func saZip(t testing.TB) []byte {
	t.Helper()
	zip, err := frontend.SAPipe(t, "sa", 0).ExportBytes()
	if err != nil {
		t.Fatal(err)
	}
	return zip
}

// quarantineRuntime is a runtime whose first kernel panic quarantines
// the model.
func quarantineRuntime(t testing.TB) *runtime.Runtime {
	t.Helper()
	rt := runtime.New(store.New(), runtime.Config{Executors: 2, PanicThreshold: 1, Quarantine: time.Minute})
	t.Cleanup(rt.Close)
	return rt
}

func localStack(t testing.TB) serving.Engine {
	t.Helper()
	local := serving.NewLocal(quarantineRuntime(t), nil)
	if _, err := local.Register(saZip(t), serving.RegisterOptions{}); err != nil {
		t.Fatal(err)
	}
	return local
}

func managerStack(t testing.TB) serving.Engine {
	t.Helper()
	r, err := repo.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Put("sa", 0, saZip(t)); err != nil {
		t.Fatal(err)
	}
	mgr, err := lifecycle.New(serving.NewLocal(quarantineRuntime(t), nil), r, lifecycle.Config{LazyLoad: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	return mgr
}

// nodeURL serves an engine stack over HTTP on a loopback listener.
func nodeURL(t testing.TB, eng serving.Engine) string {
	t.Helper()
	srv := httptest.NewServer(frontend.New(eng, frontend.Config{}))
	t.Cleanup(srv.Close)
	return srv.URL
}

func routerStack(t testing.TB) serving.Engine {
	t.Helper()
	r, err := cluster.NewRouter([]cluster.Member{{ID: "n0", Addr: nodeURL(t, localStack(t))}},
		cluster.Config{Replication: 1, ProbeInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestCapabilitiesThroughEveryStack(t *testing.T) {
	wrap := func(build func(testing.TB) serving.Engine) func(testing.TB) serving.Engine {
		return func(t testing.TB) serving.Engine { return chaos.New(build(t), 1) }
	}
	stacks := []struct {
		name  string
		build func(testing.TB) serving.Engine
	}{
		{"Local", localStack},
		{"chaos(Local)", wrap(localStack)},
		{"Manager", managerStack},
		{"chaos(Manager)", wrap(managerStack)},
		{"chaos(Router)", wrap(routerStack)},
	}
	joiner := nodeURL(t, localStack(t)) // the node /cluster/members joins and leaves
	const (
		ok   = http.StatusOK
		none = http.StatusNotImplemented // no engine in the stack has the capability
		off  = http.StatusConflict       // chaos endpoints without an injector
	)
	// One column per stack, in the order above.
	endpoints := []struct {
		method, path, body string
		want               [5]int
	}{
		{"POST", "/models/sa/pin", "", [5]int{none, none, ok, ok, none}},
		{"POST", "/models/sa/warm", "", [5]int{none, none, ok, ok, none}},
		{"GET", "/models/sa/zip?version=1", "", [5]int{none, none, ok, ok, none}},
		{"POST", "/cluster/members", `{"id":"n1","addr":"` + joiner + `"}`, [5]int{none, none, none, none, ok}},
		{"DELETE", "/cluster/members?id=" + url.QueryEscape("n1"), "", [5]int{none, none, none, none, ok}},
		{"GET", "/chaos", "", [5]int{off, ok, off, ok, ok}},
		{"GET", "/readyz", "", [5]int{ok, ok, ok, ok, ok}},
	}
	for col, st := range stacks {
		t.Run(st.name, func(t *testing.T) {
			eng := st.build(t)
			// Quarantine "sa" on node stacks: one panicking predict trips
			// it. A router has no runtime and reports none.
			local, isNode := serving.As[*serving.Local](eng)
			if isNode {
				local.SetKernelFault(func(string) error { panic("boom") })
				if _, err := eng.Predict(context.Background(), "sa", "x", serving.PredictOptions{}); err == nil {
					t.Fatal("panicking kernel must fail the request")
				}
				local.SetKernelFault(nil)
			}
			base := nodeURL(t, eng)
			for _, ep := range endpoints {
				req, err := http.NewRequest(ep.method, base+ep.path, bytes.NewReader([]byte(ep.body)))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != ep.want[col] {
					t.Errorf("%s %s = %d, want %d (%s)", ep.method, ep.path, resp.StatusCode, ep.want[col], bytes.TrimSpace(body))
				}
				if ep.path == "/readyz" && strings.Contains(string(body), `"quarantined":["sa"]`) != isNode {
					t.Errorf("GET /readyz quarantine report = %s, want reported: %v", bytes.TrimSpace(body), isNode)
				}
			}
		})
	}
}
