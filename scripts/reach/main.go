// Command reach lists the functions under internal/ that no binary of
// this repository links.
//
// It links every root (each cmd/*, each examples/* and benchmark/) with
// -gcflags=all=-l -ldflags=-dumpdep and maps every symbol in the
// linker's dependency dump back to a func declaration under internal/.
// Inlining is off so that every called function keeps its own symbol.
// The linker also keeps methods that reflection or an interface might
// reach, so the audit errs one way only: it may miss dead code, but it
// never reports a live function.
//
// Run it from the module root:
//
//	go run ./scripts/reach                               # list unlinked functions
//	go run ./scripts/reach -check scripts/reach/allow.txt
//
// With -check it exits non-zero when an unlinked function is missing
// from the allowlist, or when an allowlist entry is linked again or no
// longer exists, so the list can only shrink.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// fn is one non-test func declaration under internal/.
type fn struct {
	Name  string // "text.(*Dict).Lookup": package path below internal/, then the linker's name
	Lines int
}

func main() {
	check := flag.String("check", "", "allowlist `file`: fail unless the unlinked functions are exactly the ones it names")
	flag.Parse()
	if err := run(*check, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(1)
	}
}

func run(allowFile string, out io.Writer) error {
	mod, err := modulePath("go.mod")
	if err != nil {
		return err
	}
	funcs, err := declared(mod, ".")
	if err != nil {
		return err
	}
	roots, err := roots()
	if err != nil {
		return err
	}
	linked := map[string]bool{}
	for _, r := range roots {
		dep, err := dumpdep(r)
		if err == nil {
			err = markLinked(bytes.NewReader(dep), mod, funcs, linked)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", r, err)
		}
	}
	dead := unlinked(funcs, linked)
	total := 0
	for _, f := range dead {
		fmt.Fprintf(out, "%5d  %s\n", f.Lines, f.Name)
		total += f.Lines
	}
	fmt.Fprintf(out, "%d functions (%d lines) under internal/ are linked into none of %d roots\n", len(dead), total, len(roots))
	if allowFile == "" {
		return nil
	}
	b, err := os.ReadFile(allowFile)
	if err != nil {
		return err
	}
	allow, err := parseAllow(string(b))
	if err != nil {
		return fmt.Errorf("%s: %w", allowFile, err)
	}
	if problems := compare(dead, funcs, allow); len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(out, p)
		}
		return fmt.Errorf("%d allowlist problem(s) against %s", len(problems), allowFile)
	}
	fmt.Fprintf(out, "every unlinked function is on %s, and every entry there is still unlinked\n", allowFile)
	return nil
}

func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("run from the module root: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// roots returns every directory that builds a binary: cmd/*, examples/*
// and the benchmark module.
func roots() ([]string, error) {
	var rs []string
	for _, pat := range []string{"cmd/*/main.go", "examples/*/main.go", "benchmark/main.go"} {
		m, err := filepath.Glob(pat)
		if err != nil {
			return nil, err
		}
		for _, f := range m {
			rs = append(rs, filepath.Dir(f))
		}
	}
	if len(rs) == 0 {
		return nil, fmt.Errorf("no roots found: run from the module root")
	}
	return rs, nil
}

// dumpdep links dir with inlining off and returns the linker's
// dependency dump, a few MB per root. The build runs inside dir, so a
// nested module such as benchmark/ builds against its own go.mod.
func dumpdep(dir string) ([]byte, error) {
	cmd := exec.Command("go", "build", "-gcflags=all=-l", "-ldflags=-dumpdep", "-o", os.DevNull, ".")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		// A build that fails before linking prints only its errors.
		return nil, fmt.Errorf("go build: %w\n%s", err, out[max(0, len(out)-4096):])
	}
	return out, nil
}

// declared parses every non-test .go file below root/internal and
// returns its func declarations keyed by linker symbol:
// "mod/internal/pkg.F", "mod/internal/pkg.T.M" or "mod/internal/pkg.(*T).M".
func declared(mod, root string) (map[string]fn, error) {
	funcs := map[string]fn{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := mod + "/" + filepath.ToSlash(rel)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "_" || fd.Name.Name == "init" {
				continue
			}
			// Type parameters are dropped: the linker names an
			// instantiation "F[go.shape.int]", which symbolKeys strips
			// back to "F".
			key := pkg + "." + fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				key = pkg + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			lines := fset.Position(fd.End()).Line - fset.Position(fd.Pos()).Line + 1
			funcs[key] = fn{Name: strings.TrimPrefix(key, mod+"/internal/"), Lines: lines}
		}
		return nil
	})
	return funcs, err
}

func recvName(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.StarExpr:
		return "(*" + recvName(t.X) + ")"
	case *ast.IndexExpr: // T[K]
		return recvName(t.X)
	case *ast.IndexListExpr: // T[K, V]
		return recvName(t.X)
	case *ast.ParenExpr:
		return recvName(t.X)
	case *ast.Ident:
		return t.Name
	}
	return "?"
}

// markLinked reads a -dumpdep stream ("from -> to" per line) and marks
// every declared function that either side names.
func markLinked(dep io.Reader, mod string, funcs map[string]fn, linked map[string]bool) error {
	prefix := mod + "/internal/"
	sc := bufio.NewScanner(dep)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		from, to, ok := strings.Cut(sc.Text(), " -> ")
		if !ok {
			continue
		}
		for _, sym := range []string{from, to} {
			if !strings.HasPrefix(sym, prefix) {
				continue
			}
			// A symbol may carry an annotation such as " <UsedInIface>".
			if i := strings.LastIndex(sym, " <"); i >= 0 && strings.HasSuffix(sym, ">") {
				sym = sym[:i]
			}
			for _, k := range symbolKeys(sym) {
				if _, ok := funcs[k]; ok {
					linked[k] = true
				}
			}
		}
	}
	return sc.Err()
}

// closureSuffix matches what the compiler appends to a function's name
// for code that only exists when the function does: closures ("func1",
// nested as "func1.2"), defer and go wrappers, range-over-func bodies
// and method values ("-fm"). Auxiliary data symbols such as ".arginfo1"
// or ".stkobj" do not match: the linker deduplicates those by content,
// so they may carry the name of an unrelated function.
var closureSuffix = regexp.MustCompile(`^((\.func|\.deferwrap|\.gowrap|-range|\.)[0-9]+|-fm)*$`)

// symbolKeys returns the declaration keys that a linked symbol proves
// live. Generic instantiations are stripped to their declaration:
// "p.serve[go.shape.int]" is "p.serve" and "p.(*T[go.shape.int]).M" is
// "p.(*T).M". A dotted name is ambiguous between a value method "T.M"
// and a closure "F.func1", so both readings are returned; the caller
// keeps the one that is declared.
func symbolKeys(sym string) []string {
	sym = stripBrackets(sym)
	slash := strings.LastIndex(sym, "/")
	dot := strings.Index(sym[slash+1:], ".")
	if dot < 0 {
		return nil
	}
	pkg, rest := sym[:slash+1+dot], sym[slash+2+dot:]

	var keys []string
	if strings.HasPrefix(rest, "(") {
		end := strings.Index(rest, ")")
		if end < 0 || !strings.HasPrefix(rest[end+1:], ".") {
			return nil
		}
		recv := rest[:end+1]
		name, tail := ident(rest[end+2:])
		if name == "" || !closureSuffix.MatchString(tail) {
			return nil
		}
		keys = append(keys, pkg+"."+recv+"."+name)
		// The linker calls a value method through a generated pointer
		// wrapper, "(*T).M"; that wrapper being live makes "T.M" live.
		if t, ok := strings.CutPrefix(recv, "(*"); ok {
			keys = append(keys, pkg+"."+strings.TrimSuffix(t, ")")+"."+name)
		}
		return keys
	}
	first, tail := ident(rest)
	if first == "" {
		return nil
	}
	if closureSuffix.MatchString(tail) {
		keys = append(keys, pkg+"."+first)
	}
	if strings.HasPrefix(tail, ".") {
		if second, tail2 := ident(tail[1:]); second != "" && closureSuffix.MatchString(tail2) {
			keys = append(keys, pkg+"."+first+"."+second)
		}
	}
	return keys
}

// ident splits a leading Go identifier off s.
func ident(s string) (string, string) {
	i := 0
	for i < len(s) && (s[i] == '_' || s[i] >= 'a' && s[i] <= 'z' || s[i] >= 'A' && s[i] <= 'Z' || i > 0 && s[i] >= '0' && s[i] <= '9' || s[i] >= 0x80) {
		i++
	}
	return s[:i], s[i:]
}

// stripBrackets removes every balanced [...] group: the type arguments
// of a generic instantiation.
func stripBrackets(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func unlinked(funcs map[string]fn, linked map[string]bool) []fn {
	var dead []fn
	for k, f := range funcs {
		if !linked[k] {
			dead = append(dead, f)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].Name < dead[j].Name })
	return dead
}

// parseAllow reads an allowlist: one entry per line, the function's name
// as reach prints it (or "pkg.*" for a whole package) followed by the
// reason it stays. Blank lines and lines starting with # are skipped.
func parseAllow(s string) (map[string]string, error) {
	allow := map[string]string{}
	for i, line := range strings.Split(s, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason := line, ""
		if j := strings.IndexAny(line, " \t"); j >= 0 {
			name, reason = line[:j], strings.TrimSpace(line[j:])
		}
		if reason == "" {
			return nil, fmt.Errorf("line %d: %s has no reason", i+1, name)
		}
		if _, dup := allow[name]; dup {
			return nil, fmt.Errorf("line %d: %s listed twice", i+1, name)
		}
		allow[name] = reason
	}
	return allow, nil
}

// compare reports every unlinked function that the allowlist does not
// cover, and every allowlist entry that covers no unlinked function
// (it is linked again, or it no longer exists).
func compare(dead []fn, funcs map[string]fn, allow map[string]string) []string {
	used := map[string]bool{}
	var problems []string
	for _, f := range dead {
		if _, ok := allow[f.Name]; ok {
			used[f.Name] = true
			continue
		}
		if p := pkgEntry(f.Name); allow[p] != "" {
			used[p] = true
			continue
		}
		problems = append(problems, fmt.Sprintf("unlinked, not on the allowlist: %s (%d lines)", f.Name, f.Lines))
	}
	exists := map[string]bool{}
	for _, f := range funcs {
		exists[f.Name] = true
		exists[pkgEntry(f.Name)] = true
	}
	var stale []string
	for name := range allow {
		switch {
		case used[name]:
		case exists[name]:
			stale = append(stale, "on the allowlist but linked: "+name)
		default:
			stale = append(stale, "on the allowlist but not declared: "+name)
		}
	}
	sort.Strings(stale)
	return append(problems, stale...)
}

// pkgEntry is the allowlist entry that covers a whole package: "bench.*".
func pkgEntry(name string) string {
	return name[:strings.Index(name, ".")] + ".*"
}
