package repo

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"pretzel/internal/runtime"
)

func openTemp(t *testing.T) *Repo {
	t.Helper()
	r, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestPutScanRead(t *testing.T) {
	r := openTemp(t)
	e, err := r.Put("sa", 0, []byte("zip-v1"))
	if err != nil {
		t.Fatal(err)
	}
	if e.Name != "sa" || e.Version != 1 || e.Bytes != 6 {
		t.Fatalf("entry %+v", e)
	}
	if e2, err := r.Put("sa", 0, []byte("zip-v2")); err != nil || e2.Version != 2 {
		t.Fatalf("next free version: %+v %v", e2, err)
	}
	if _, err := r.Put("sa", 2, []byte("x")); err == nil {
		t.Fatal("republishing an existing version must fail")
	}
	entries, err := r.Scan()
	if err != nil || len(entries) != 2 {
		t.Fatalf("scan %v %v", entries, err)
	}
	if entries[0].Ref() != "sa@1" || entries[1].Ref() != "sa@2" {
		t.Fatalf("scan order %v", entries)
	}
	b, err := r.Read("sa", 2)
	if err != nil || string(b) != "zip-v2" {
		t.Fatalf("read %q %v", b, err)
	}
	if _, err := r.Read("sa", 9); err == nil {
		t.Fatal("reading a missing version must fail")
	}
}

func TestPutExplicitVersionGap(t *testing.T) {
	r := openTemp(t)
	if _, err := r.Put("m", 5, []byte("five")); err != nil {
		t.Fatal(err)
	}
	e, err := r.Put("m", 0, []byte("six"))
	if err != nil || e.Version != 6 {
		t.Fatalf("next free after explicit 5: %+v %v", e, err)
	}
}

func TestInvalidNames(t *testing.T) {
	r := openTemp(t)
	for _, name := range []string{"", ".", "..", "a/b", `a\b`} {
		if _, err := r.Put(name, 0, []byte("x")); err == nil {
			t.Fatalf("name %q must be rejected", name)
		}
	}
}

func TestScanSkipsIncompletePublish(t *testing.T) {
	r := openTemp(t)
	// A crashed publish: version dir with only a temp file.
	vdir := filepath.Join(r.Root(), "sa", "1")
	if err := os.MkdirAll(vdir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(vdir, ".put-crashed"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := r.Scan()
	if err != nil || len(entries) != 0 {
		t.Fatalf("incomplete publish must be invisible: %v %v", entries, err)
	}
}

func TestLegacyFlatLayout(t *testing.T) {
	r := openTemp(t)
	if err := os.WriteFile(filepath.Join(r.Root(), "old.zip"), []byte("legacy"), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := r.Scan()
	if err != nil || len(entries) != 1 || entries[0].Ref() != "old@1" {
		t.Fatalf("legacy scan %v %v", entries, err)
	}
	if b, err := r.Read("old", 1); err != nil || string(b) != "legacy" {
		t.Fatalf("legacy read %q %v", b, err)
	}
	vs, err := r.Versions("old")
	if err != nil || len(vs) != 1 || vs[0].Version != 1 {
		t.Fatalf("legacy versions %v %v", vs, err)
	}
	// The first versioned publish picks version 2 — the flat file is
	// version 1 — and must not make version 1 vanish: after a reopen
	// both are listed, and version 1 is still the flat file.
	if e, err := r.Put("old", 0, []byte("v2")); err != nil || e.Version != 2 {
		t.Fatalf("put over legacy %+v %v", e, err)
	}
	r, err = Open(r.Root())
	if err != nil {
		t.Fatal(err)
	}
	entries, err = r.Scan()
	if err != nil || len(entries) != 2 || entries[0].Ref() != "old@1" || entries[1].Ref() != "old@2" {
		t.Fatalf("flat version 1 must stay listed beside old@2: %v %v", entries, err)
	}
	if vs, err := r.Versions("old"); err != nil || len(vs) != 2 {
		t.Fatalf("versions after put over legacy: %v %v", vs, err)
	}
	if b, err := r.Read("old", 1); err != nil || string(b) != "legacy" {
		t.Fatalf("old@1 after put over legacy: %q %v", b, err)
	}
	// Deleting version 1 still removes the flat file.
	if err := r.Delete("old", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(r.Root(), "old.zip")); !os.IsNotExist(err) {
		t.Fatalf("flat zip survived Delete(old, 1): %v", err)
	}
	if entries, _ = r.Scan(); len(entries) != 1 || entries[0].Ref() != "old@2" {
		t.Fatalf("after deleting the flat version: %v", entries)
	}
	// A published old/1/model.zip wins over a flat file of the same name.
	if err := os.WriteFile(filepath.Join(r.Root(), "old.zip"), []byte("legacy"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Put("old", 1, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if vs, _ := r.Versions("old"); len(vs) != 2 {
		t.Fatalf("versions after publishing old@1: %v", vs)
	}
	if b, err := r.Read("old", 1); err != nil || string(b) != "v1" {
		t.Fatalf("versioned old@1 must shadow the flat file: %q %v", b, err)
	}
}

func TestDelete(t *testing.T) {
	r := openTemp(t)
	for v := 1; v <= 3; v++ {
		if _, err := r.Put("m", v, []byte{byte(v)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Delete("m", 2); err != nil {
		t.Fatal(err)
	}
	vs, _ := r.Versions("m")
	if len(vs) != 2 || vs[0].Version != 1 || vs[1].Version != 3 {
		t.Fatalf("after version delete: %v", vs)
	}
	if err := r.Delete("m", 0); err != nil {
		t.Fatal(err)
	}
	if vs, _ := r.Versions("m"); len(vs) != 0 {
		t.Fatalf("after model delete: %v", vs)
	}
}

// TestDeleteLegacyVersion: a legacy flat zip surfaces as version 1, so
// deleting version 1 must remove it too — otherwise the "deleted"
// version resurrects on the next scan or restart.
func TestDeleteLegacyVersion(t *testing.T) {
	r := openTemp(t)
	if err := os.WriteFile(filepath.Join(r.Root(), "old.zip"), []byte("legacy"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("old", 1); err != nil {
		t.Fatal(err)
	}
	if entries, err := r.Scan(); err != nil || len(entries) != 0 {
		t.Fatalf("legacy zip resurrected after delete: %v %v", entries, err)
	}
}

func TestLabelsRoundTrip(t *testing.T) {
	r := openTemp(t)
	if labels, err := r.Labels("m"); err != nil || len(labels) != 0 {
		t.Fatalf("unset labels %v %v", labels, err)
	}
	want := map[string]int{"stable": 2, "canary": 3}
	if err := r.PutLabels("m", want); err != nil {
		t.Fatal(err)
	}
	got, err := r.Labels("m")
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("labels %v %v", got, err)
	}
	// A label that is empty or reads as a version number is refused,
	// and nothing of the write is kept.
	for _, bad := range []string{"", "3", "v3"} {
		if err := r.PutLabels("m", map[string]int{"beta": 2, bad: 2}); !errors.Is(err, runtime.ErrInvalidInput) {
			t.Fatalf("PutLabels with label %q: %v", bad, err)
		}
	}
	if got, _ := r.Labels("m"); !reflect.DeepEqual(got, want) {
		t.Fatalf("refused writes changed the labels: %v", got)
	}
}

// TestResolveAllocs: repo.Resolve runs on every request a managed node
// serves, and on success it allocates nothing, whichever way the
// reference names the version.
func TestResolveAllocs(t *testing.T) {
	r := openTemp(t)
	if _, err := r.Put("m", 0, []byte("zip")); err != nil {
		t.Fatal(err)
	}
	for _, ref := range []string{"m", "m@1", "m@v1", "m@stable"} {
		if n := testing.AllocsPerRun(100, func() {
			if e, err := r.Resolve(ref); err != nil || e.Version != 1 {
				t.Fatalf("Resolve(%q) = %+v, %v", ref, e, err)
			}
		}); n != 0 {
			t.Fatalf("Resolve(%q): %v allocs", ref, n)
		}
	}
}

// TestPollReportsNewVersions: versions and labels published behind a
// repository's back (here by a second Repo over the same directory, as
// an offline trainer would) enter its catalog at the next poll tick,
// and a version deleted behind its back leaves it.
func TestPollReportsNewVersions(t *testing.T) {
	r := openTemp(t)
	if _, err := r.Put("seed", 1, []byte("pre")); err != nil {
		t.Fatal(err)
	}
	p := r.Poll(5 * time.Millisecond)
	defer p.Stop()

	trainer, err := Open(r.Root())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trainer.Put("seed", 2, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if _, err := trainer.Put("fresh", 0, []byte("new-model")); err != nil {
		t.Fatal(err)
	}
	if err := trainer.PutLabels("seed", map[string]int{"canary": 2}); err != nil {
		t.Fatal(err)
	}
	waitFor := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !ok(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("poller never saw %s", what)
			}
		}
	}
	waitFor("the new versions", func() bool {
		seed, _ := r.Versions("seed")
		fresh, _ := r.Versions("fresh")
		return len(seed) == 2 && len(fresh) == 1
	})
	if e, err := r.Resolve("seed@canary"); err != nil || e.Version != 2 {
		t.Fatalf("polled label: %+v %v", e, err)
	}
	if err := trainer.Delete("seed", 1); err != nil {
		t.Fatal(err)
	}
	waitFor("the deletion", func() bool {
		vs, _ := r.Versions("seed")
		return len(vs) == 1 && vs[0].Version == 2
	})
}

// TestReadDetectsCorruption: flipping one byte of a published zip on
// disk must surface as a typed ErrCorruptModel on the next Read — the
// lifecycle loader feeds that into its skip/negative-cache path
// instead of handing a silently damaged model to the compiler.
func TestReadDetectsCorruption(t *testing.T) {
	r := openTemp(t)
	e, err := r.Put("sa", 0, []byte("zip-bytes-v1"))
	if err != nil {
		t.Fatal(err)
	}
	if b, err := r.Read("sa", 1); err != nil || string(b) != "zip-bytes-v1" {
		t.Fatalf("pristine read %q %v", b, err)
	}
	// Flip one byte in place.
	path := r.zipPath(e.Name, e.Version)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = r.Read("sa", 1)
	if !errors.Is(err, ErrCorruptModel) {
		t.Fatalf("byte flip must surface as ErrCorruptModel, got %v", err)
	}
}

// TestReadWithoutManifestUnverified: versions published behind the
// repository's back (rsync, legacy layouts) carry no manifest and must
// read cleanly — integrity checking is opt-in via Put.
func TestReadWithoutManifestUnverified(t *testing.T) {
	r := openTemp(t)
	vdir := filepath.Join(r.Root(), "ext", "1")
	if err := os.MkdirAll(vdir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(vdir, zipName), []byte("external"), 0o644); err != nil {
		t.Fatal(err)
	}
	if b, err := r.Read("ext", 1); err != nil || string(b) != "external" {
		t.Fatalf("manifest-less read %q %v", b, err)
	}
}

// TestPutWriteFailureCleanup: when the storage layer fails mid-Put
// (here: the model's directory path is occupied by a regular file, so
// every write fails with ENOTDIR — works even when tests run as root,
// unlike permission bits), the error must be typed ErrStorage and the
// repository must be left with no partial version directory or stray
// temp files.
func TestPutWriteFailureCleanup(t *testing.T) {
	r := openTemp(t)
	// Occupy the model's directory slot with a plain file.
	if err := os.WriteFile(filepath.Join(r.Root(), "jam"), []byte("not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := r.Put("jam", 0, []byte("payload"))
	if !errors.Is(err, ErrStorage) {
		t.Fatalf("write failure must surface as ErrStorage, got %v", err)
	}
	// Nothing partial left behind: the root still holds exactly the jam
	// file we planted.
	dirents, err := os.ReadDir(r.Root())
	if err != nil {
		t.Fatal(err)
	}
	if len(dirents) != 1 || dirents[0].Name() != "jam" || dirents[0].IsDir() {
		t.Fatalf("failed Put left debris: %v", dirents)
	}
	if entries, err := r.Scan(); err != nil || len(entries) != 0 {
		t.Fatalf("failed Put must be invisible to Scan: %v %v", entries, err)
	}
}

// TestPutFailureRemovesPartialVersionDir: a failure after the version
// directory exists (the staging temp file cannot be created because a
// file sits where the version directory should be) must remove the
// partial directory so the version number is reusable.
func TestPutFailureRemovesPartialVersionDir(t *testing.T) {
	r := openTemp(t)
	if _, err := r.Put("m", 1, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// Occupy version 2's directory slot with a plain file: MkdirAll
	// fails with ENOTDIR below the model dir.
	if err := os.WriteFile(filepath.Join(r.Root(), "m", "2"), []byte("squatter"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Put("m", 2, []byte("v2")); !errors.Is(err, ErrStorage) {
		t.Fatalf("want ErrStorage, got %v", err)
	}
	// Version 1 is untouched and still reads verified.
	if b, err := r.Read("m", 1); err != nil || string(b) != "v1" {
		t.Fatalf("sibling version damaged: %q %v", b, err)
	}
}

func TestConcurrentPuts(t *testing.T) {
	r := openTemp(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, err := r.Put("hot", 0, []byte("payload")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	vs, err := r.Versions("hot")
	if err != nil || len(vs) != 32 {
		t.Fatalf("32 concurrent puts must land 32 distinct versions: %d %v", len(vs), err)
	}
}

// TestCatalogFollowsWrites: Put, PutLabels and Delete update the
// catalog in the same step as the disk (a fresh Open over the directory
// agrees), with "stable" on the lowest version until one is persisted,
// and deleting a version drops the labels that point at it.
func TestCatalogFollowsWrites(t *testing.T) {
	r := openTemp(t)
	for v := 2; v <= 4; v++ {
		if _, err := r.Put("m", v, []byte{byte(v)}); err != nil {
			t.Fatal(err)
		}
	}
	resolve := func(ref string) int {
		t.Helper()
		e, err := r.Resolve(ref)
		if err != nil {
			return 0
		}
		return e.Version
	}
	agree := func(want map[string]int) {
		t.Helper()
		reopened, err := Open(r.Root())
		if err != nil {
			t.Fatal(err)
		}
		for _, rr := range []*Repo{r, reopened} {
			if got, _ := rr.Labels("m"); !reflect.DeepEqual(got, want) {
				t.Fatalf("labels %v, want %v", got, want)
			}
			if a, b := r.Entries(), rr.Entries(); !reflect.DeepEqual(a, b) {
				t.Fatalf("entries %v, reopened %v", a, b)
			}
		}
	}
	if resolve("m") != 2 || resolve("m@stable") != 2 || resolve("m@v3") != 3 || resolve("m@1") != 0 || resolve("ghost") != 0 {
		t.Fatal("an unlabeled model must resolve bare and stable to its lowest version")
	}
	agree(map[string]int{"stable": 2})

	if err := r.PutLabels("m", map[string]int{"canary": 4}); err != nil {
		t.Fatal(err)
	}
	if err := r.PutLabels("m", map[string]int{"stable": 3}); err != nil {
		t.Fatal(err)
	}
	if resolve("m") != 3 || resolve("m@canary") != 4 {
		t.Fatal("persisted labels must resolve without a scan")
	}
	agree(map[string]int{"stable": 3, "canary": 4})

	if err := r.Delete("m", 3); err != nil {
		t.Fatal(err)
	}
	if resolve("m") != 2 || resolve("m@3") != 0 {
		t.Fatal("deleting the stable version must hand stable back to the lowest")
	}
	agree(map[string]int{"stable": 2, "canary": 4})

	if err := r.Delete("m", 0); err != nil {
		t.Fatal(err)
	}
	if resolve("m") != 0 || len(r.Entries()) != 0 {
		t.Fatal("a deleted model must leave the catalog")
	}
}
