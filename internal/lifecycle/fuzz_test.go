package lifecycle

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pretzel/internal/repo"
	"pretzel/internal/runtime"
	"pretzel/internal/serving"
	"pretzel/internal/store"
)

// FuzzRepoCatalog writes fuzzed labels.json and manifest.json bytes and
// a fuzzed version directory name into a repository that holds one good
// version of "m", as a trainer writing behind a node's back might. Open,
// Scan, Versions, Labels, Read and a manager's Resolve must not panic,
// and every version a resolve returns is a published one.
func FuzzRepoCatalog(f *testing.F) {
	zip := buildZip(f, "m", 0)
	rt := runtime.New(store.New(), runtime.Config{Executors: 1})
	f.Cleanup(rt.Close)
	local := serving.NewLocal(rt, nil)
	f.Fuzz(func(t *testing.T, labels, manifest []byte, vdir string) {
		if vdir == "" || vdir == "." || vdir == ".." || strings.ContainsAny(vdir, "/\\\x00") {
			return // not one path component: it would land outside "m"
		}
		dir := t.TempDir()
		files := map[string][]byte{
			filepath.Join("m", "1", "model.zip"):      zip,
			filepath.Join("m", "labels.json"):         labels,
			filepath.Join("m", vdir, "model.zip"):     zip,
			filepath.Join("m", vdir, "manifest.json"): manifest,
		}
		for name, b := range files {
			path := filepath.Join(dir, name)
			if os.MkdirAll(filepath.Dir(path), 0o755) != nil || os.WriteFile(path, b, 0o644) != nil {
				return // a name this file system refuses
			}
		}
		r, err := repo.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Scan(); err != nil {
			t.Fatal(err)
		}
		vs, err := r.Versions("m")
		if err != nil || len(vs) == 0 {
			t.Fatalf("versions of m: %v %v", vs, err)
		}
		published := map[int]bool{}
		for _, e := range vs {
			published[e.Version] = true
			_, _ = r.Read("m", e.Version)
		}
		ls, err := r.Labels("m")
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(local, r, Config{LazyLoad: true})
		if err != nil {
			t.Fatal(err)
		}
		refs := []string{"m", "m@stable", "m@1", "m@" + vdir}
		for l := range ls {
			refs = append(refs, "m@"+l)
		}
		for _, ref := range refs {
			if _, v, err := m.Resolve(ref); err == nil && !published[v] {
				t.Fatalf("Resolve(%q) = version %d, published %v (labels %v)", ref, v, vs, ls)
			}
		}
	})
}
