package frontend

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"pretzel/internal/lifecycle"
	"pretzel/internal/pipeline"
	"pretzel/internal/repo"
	pruntime "pretzel/internal/runtime"
	"pretzel/internal/serving"
	"pretzel/internal/store"
	"pretzel/internal/workload"
)

// goldenWire is the SHA-256 of every /predict response body, in order,
// that TestPredictWireDigest collects. It pins the bytes the front end
// puts on the wire — answers, their JSON encoding and error bodies —
// across commits, as workload.TestGoldenAnswerDigests pins the answers
// themselves. A change that moves it says why in CHANGES.md. Float
// summation order makes it specific to amd64.
const goldenWire = "f95164a9d886cf4c3749aa5aca5a8f0f950324549216557bdd5b9c48034fe49a"

// TestPredictWireDigest uploads every SmallScale SA and AC model to a
// managed front end with the result cache off, POSTs a fixed list of
// inputs to each, and digests the response bodies.
func TestPredictWireDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the wire digest is computed on amd64, not %s", runtime.GOARCH)
	}
	sa, err := workload.BuildSA(workload.SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	ac, err := workload.BuildAC(workload.SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	saInputs := append([]string{
		"",
		"café naïve 日本語 très bien — ÀÉÎÕÜ ß",
		"extraordinarily magnificent unbelievably disappointing wonderfulness",
		"a nice wonderful product",
	}, sa.TestInputs[:4]...)
	acInputs := append([]string{"", "1,2,x", "0,0,0,0,0,0,0,0,0,0"}, ac.TestInputs[:4]...)

	rp, err := repo.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rt := pruntime.New(store.New(), pruntime.Config{Executors: 2})
	mgr, err := lifecycle.New(serving.NewLocal(rt, nil), rp, lifecycle.Config{})
	if err != nil {
		rt.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	srv := httptest.NewServer(New(mgr, Config{}))
	t.Cleanup(srv.Close)

	h := sha256.New()
	serve := func(pipes []*pipeline.Pipeline, inputs []string) {
		for _, p := range pipes {
			zip, err := p.ExportBytes()
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(srv.URL+"/models", "application/zip", bytes.NewReader(zip))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("upload %s: status %d", p.Name, resp.StatusCode)
			}
			for _, in := range inputs {
				req, _ := json.Marshal(Request{Model: p.Name, Input: in})
				resp, err := http.Post(srv.URL+"/predict", "application/json", bytes.NewReader(req))
				if err != nil {
					t.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				h.Write(body)
			}
		}
	}
	serve(sa.Pipelines, saInputs)
	serve(ac.Pipelines, acInputs)
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenWire {
		t.Fatalf("wire digest = %s, want %s", got, goldenWire)
	}
}
