package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	goruntime "runtime"
	"time"

	"pretzel/internal/frontend"
	"pretzel/internal/lifecycle"
	"pretzel/internal/oven"
	"pretzel/internal/repo"
	"pretzel/internal/runtime"
	"pretzel/internal/serving"
	"pretzel/internal/store"
)

// nodeConfig is all the program under test is told: where its models
// are and how the server would have been flagged. No workload name and
// no seed.
type nodeConfig struct {
	dir          string // model repository
	cacheEntries int    // pretzel-server -cache
	lazy         bool   // -lazy-load
	budget       int64  // -ram-budget
}

// node is the serving stack of one pretzel-server process in node
// mode, wired as cmd/pretzel-server buildNode wires it and listening
// on a loopback port. The benchmark keeps a handle on every layer so
// that it can time calls into each from outside.
type node struct {
	rt    *runtime.Runtime
	local *serving.Local
	mgr   *lifecycle.Manager
	fe    *frontend.Server
	srv   *http.Server
	addr  string
	done  chan struct{}
}

// startNode builds the stack. tr, when non-nil, puts the benchmark's
// two span recorders around frontend and between frontend and
// lifecycle; they pass straight through until tracing is switched on.
func startNode(nc nodeConfig, tr *tracer) (*node, error) {
	procs := goruntime.GOMAXPROCS(0)
	rt := runtime.New(store.New(), runtime.Config{Executors: procs})
	opts := oven.DefaultOptions()
	mr, err := repo.Open(nc.dir)
	if err != nil {
		rt.Close()
		return nil, err
	}
	local := serving.NewLocal(rt, &opts)
	mgr, err := lifecycle.New(local, mr, lifecycle.Config{
		RAMBudget: nc.budget,
		LazyLoad:  nc.lazy,
		Compile:   &opts,
	})
	if err != nil {
		rt.Close()
		return nil, err
	}
	var eng serving.Engine = mgr
	if tr != nil {
		eng = &tracedEngine{Engine: mgr, tr: tr}
	}
	fe := frontend.New(eng, frontend.Config{CacheEntries: nc.cacheEntries, CompileOptions: &opts})
	var handler http.Handler = fe
	if tr != nil {
		handler = tr.handler(fe)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = mgr.Close()
		return nil, err
	}
	n := &node{
		rt: rt, local: local, mgr: mgr, fe: fe,
		srv:  &http.Server{Handler: handler},
		addr: ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(n.done)
		_ = n.srv.Serve(ln) // returns ErrServerClosed from stop
	}()
	return n, nil
}

// stop shuts the listener and the engine down and waits for the
// serving goroutine.
func (n *node) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = n.srv.Shutdown(ctx)
	<-n.done
	_ = n.mgr.Close()
}

// writeRepo lays the catalog out as an offline trainer would rsync it
// into a node's repository: <name>/1/model.zip, no manifest. (A flat
// <name>.zip would also be served as version 1, but only until the
// first upload creates the versioned directory that shadows it.)
func writeRepo(dir string, c *catalog) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	for _, m := range c.models {
		vdir := filepath.Join(dir, m.name, "1")
		if err := os.MkdirAll(vdir, 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(vdir, "model.zip"), m.zip, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// fullResidency loads the whole catalog with no budget and reports
// what the lifecycle tier counts as resident; longtail-churn's budget
// is a share of it.
func fullResidency(dir string) (int64, error) {
	n, err := startNode(nodeConfig{dir: dir}, nil)
	if err != nil {
		return 0, err
	}
	defer n.stop()
	b := n.mgr.ResidentBytes()
	if b <= 0 {
		return 0, fmt.Errorf("full residency of %s reads %d bytes", dir, b)
	}
	return b, nil
}

// liveHeap settles the heap with two collections and reads the bytes
// of the objects that survived. (HeapInuse, which also counts the free
// part of partly used spans, moved by a third from run to run on the
// small longtail catalog.)
func liveHeap() uint64 {
	goruntime.GC()
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
