package main

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// fixtureSrc declares a pointer receiver, value receivers, a generic
// function and a generic type with a pointer and a value method.
const fixtureSrc = `package fx

type T struct{ n int }

func (t *T) Ptr() int      { return t.n }
func (t T) Val() int       { return t.n + 1 }
func (t T) ValUnused() int { return t.n + 2 }

func Gen[E any](xs []E) int { return len(xs) }

type List[E any] struct{ xs []E }

func (l *List[E]) Push(e E) { l.xs = append(l.xs, e) }
func (l List[E]) Len() int  { return len(l.xs) }

func (l *List[E]) Drop() {
	l.xs = nil
}

func Dead() int { return 3 }

func init() {}
`

// fixtureDump is what go build -gcflags=all=-l -ldflags=-dumpdep prints
// for a main that calls Ptr from a closure, Val, Gen[int] and
// List[string]'s Push and Len. The runtime lines name auxiliary symbols
// of Drop and ValUnused: the linker deduplicates those by content, so
// they carry the names of functions that are not linked.
const fixtureDump = `_ -> main.main
main.main -> fixture/internal/fx.(*List[go.shape.string]).Push
main.main -> fixture/internal/fx..dict.Gen[int]
main.main -> fixture/internal/fx.Gen[go.shape.int]
main.main -> fixture/internal/fx.List[go.shape.string].Len
main.main -> fixture/internal/fx.T.Val
main.main -> main.main.func1
main.main.func1 -> fixture/internal/fx.(*T).Ptr
fixture/internal/fx.Gen[go.shape.int] -> fixture/internal/fx.Gen[go.shape.int].arginfo1
runtime.lock -> fixture/internal/fx.(*List[go.shape.string]).Drop.arginfo1
runtime.throw -> fixture/internal/fx.T.ValUnused.argliveinfo
type:*fixture/internal/fx.List[string] <UsedInIface> -> type:.namedata.Push.
fixture/internal/fx..dict.List[string] -> type:fixture/internal/fx.List[string] <UsedInIface>
`

func fixture(t *testing.T) map[string]fn {
	t.Helper()
	root := t.TempDir()
	dir := filepath.Join(root, "internal", "fx")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]string{
		"fx.go":      fixtureSrc,
		"fx_test.go": "package fx\n\nfunc helper() {}\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	funcs, err := declared("fixture", root)
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

func TestDeclaredSymbols(t *testing.T) {
	funcs := fixture(t)
	var got []string
	for k, f := range funcs {
		if want := "fixture/internal/" + f.Name; k != want {
			t.Errorf("key %q names %q", k, f.Name)
		}
		got = append(got, f.Name)
	}
	sort.Strings(got)
	want := []string{
		"fx.(*List).Drop", "fx.(*List).Push", "fx.(*T).Ptr", "fx.Dead",
		"fx.Gen", "fx.List.Len", "fx.T.Val", "fx.T.ValUnused",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("declared %v, want %v", got, want)
	}
	if l := funcs["fixture/internal/fx.(*List).Drop"].Lines; l != 3 {
		t.Fatalf("Drop spans %d lines, want 3", l)
	}
}

// TestGenericInstantiationsAreLinked: an instantiation such as
// Gen[go.shape.int] or (*List[go.shape.string]).Push proves its generic
// declaration live, and an auxiliary symbol proves nothing.
func TestGenericInstantiationsAreLinked(t *testing.T) {
	funcs := fixture(t)
	linked := map[string]bool{}
	if err := markLinked(strings.NewReader(fixtureDump), "fixture", funcs, linked); err != nil {
		t.Fatal(err)
	}
	var dead []string
	for _, f := range unlinked(funcs, linked) {
		dead = append(dead, f.Name)
	}
	if want := []string{"fx.(*List).Drop", "fx.Dead", "fx.T.ValUnused"}; !reflect.DeepEqual(dead, want) {
		t.Fatalf("unlinked %v, want %v", dead, want)
	}
}

func TestSymbolKeys(t *testing.T) {
	for sym, want := range map[string][]string{
		"p/internal/x.F":                                    {"p/internal/x.F"},
		"p/internal/x.F.func1.2":                            {"p/internal/x.F", "p/internal/x.F.func1"},
		"p/internal/x.F.deferwrap1":                         {"p/internal/x.F", "p/internal/x.F.deferwrap1"},
		"p/internal/x.T.M":                                  {"p/internal/x.T.M"},
		"p/internal/x.(*T).M":                               {"p/internal/x.(*T).M", "p/internal/x.T.M"},
		"p/internal/x.(*T).M-fm":                            {"p/internal/x.(*T).M", "p/internal/x.T.M"},
		"p/internal/x.serve[go.shape.[]float32]":            {"p/internal/x.serve"},
		"p/internal/x.As[go.shape.interface { Close() }]":   {"p/internal/x.As"},
		"p/internal/x.(*L[go.shape.map[string][]int]).Push": {"p/internal/x.(*L).Push", "p/internal/x.L.Push"},
		"p/internal/x.F.arginfo1":                           {"p/internal/x.F.arginfo1"},
		"p/internal/x.(*T).M.stkobj":                        nil,
		"p/internal/x..dict.F[int]":                         nil,
	} {
		// A dotted name is also read as a value method: "F.func1" as
		// method func1 of a type F, "F.arginfo1" as method arginfo1. The
		// caller drops keys that are not declared.
		got := symbolKeys(sym)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("symbolKeys(%q) = %q, want %q", sym, got, want)
		}
	}
}

func TestCompareIsTwoSided(t *testing.T) {
	funcs := map[string]fn{
		"m/internal/a.Dead":     {Name: "a.Dead", Lines: 3},
		"m/internal/a.Live":     {Name: "a.Live", Lines: 2},
		"m/internal/b.Fixture":  {Name: "b.Fixture", Lines: 4},
		"m/internal/bench.Tool": {Name: "bench.Tool", Lines: 5},
	}
	dead := []fn{funcs["m/internal/a.Dead"], funcs["m/internal/b.Fixture"], funcs["m/internal/bench.Tool"]}
	allow, err := parseAllow(`
# comment
b.Fixture   fixture for a's tests
bench.*     experiment harness
a.Live      was a fixture once
a.Gone      deleted since
`)
	if err != nil {
		t.Fatal(err)
	}
	got := compare(dead, funcs, allow)
	want := []string{
		"unlinked, not on the allowlist: a.Dead (3 lines)",
		"on the allowlist but linked: a.Live",
		"on the allowlist but not declared: a.Gone",
	}
	sort.Strings(got[1:])
	sort.Strings(want[1:])
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("compare = %q, want %q", got, want)
	}
	if _, err := parseAllow("a.Dead\n"); err == nil {
		t.Fatal("an entry without a reason must be rejected")
	}
	if _, err := parseAllow("a.Dead x\na.Dead y\n"); err == nil {
		t.Fatal("a duplicate entry must be rejected")
	}
}
