// Package repo implements the model repository behind the lifecycle
// tier: the durable, versioned store a serving node loads models from
// and evicts them back to, and the node's one catalog of which versions
// each name has and where its labels point. The layout is one directory
// per model with one numbered subdirectory per version:
//
//	<root>/<name>/<version>/model.zip    the exported pipeline
//	<root>/<name>/labels.json            persisted label→version map
//
// Publishing is atomic: a zip is written to a temporary file in the
// version directory and renamed into place, so a concurrent Scan (or a
// crashed writer) never observes a half-written model — readers only
// ever see complete "model.zip" files.
//
// For compatibility with flat model directories (pretzel-train -out,
// the pre-lifecycle server layout), a top-level "<name>.zip" is
// version 1 of <name> — unless "<name>/1/model.zip" exists, which
// wins. Writes only ever use the versioned layout.
//
// The catalog is an in-memory index of that layout. Open fills it with
// one walk, Put, Delete and PutLabels update it in the same step as
// their disk write, and Scan (and so Poll) walks the disk again to pick
// up what was written behind the repository's back. Versions, Labels,
// Entries and Resolve answer from the index and touch no disk.
package repo

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pretzel/internal/runtime"
)

// zipName is the published model file inside a version directory.
const zipName = "model.zip"

// labelsName is the per-model persisted label map.
const labelsName = "labels.json"

// manifestName is the per-version integrity manifest written at Put.
const manifestName = "manifest.json"

// ErrCorruptModel reports a published version whose bytes no longer
// match the checksum recorded at publish time (bit rot, a truncated
// rsync, a hostile edit). Read callers — the lifecycle loader in
// particular — treat it like any other bad version: skip it, count it,
// negative-cache the model if nothing loadable remains.
var ErrCorruptModel = errors.New("repo: corrupt model")

// ErrStorage reports a write-side failure of the repository itself
// (disk full, permissions, a path turned into a file): the upload was
// fine, the storage tier is not. Surfaces as HTTP 503 — retryable —
// rather than a conflict or an internal error.
var ErrStorage = errors.New("repo: storage failure")

// manifest is the integrity record stored next to each published zip.
type manifest struct {
	SHA256 string `json:"sha256"`
	Bytes  int64  `json:"bytes"`
}

// Entry describes one published model version on disk.
type Entry struct {
	Name    string
	Version int
	Path    string
	Bytes   int64
	ModTime time.Time
}

// Ref formats the entry as a "name@version" model reference.
func (e Entry) Ref() string { return fmt.Sprintf("%s@%d", e.Name, e.Version) }

// Repo is a versioned model repository rooted at one directory. All
// methods are safe for concurrent use.
type Repo struct {
	root string

	// mu serializes writers (Put/Delete/PutLabels/Scan): next-free-version
	// selection, the label read-modify-write and a walk that replaces the
	// index must not interleave.
	mu sync.Mutex

	// idx guards index. Writers take it only after their disk write, so
	// a reader never waits on a publish's fsync.
	idx   sync.RWMutex
	index map[string]*model
}

// model is one name's catalog entry.
type model struct {
	versions []Entry // published, ascending
	// persisted is labels.json. Writers replace it and never change one
	// once it is stored, so a writer may read it outside idx.
	persisted map[string]int
}

// label returns the version label names: a persisted label, or, for
// "stable" when none is persisted, the lowest published version. This is
// the one statement of that rule on a node.
func (m *model) label(l string) (int, bool) {
	if v, ok := m.persisted[l]; ok {
		return v, true
	}
	if l == runtime.LabelStable && len(m.versions) > 0 {
		return m.versions[0].Version, true
	}
	return 0, false
}

// find returns where version v is, or would go, in m.versions.
func (m *model) find(v int) (int, bool) {
	return slices.BinarySearchFunc(m.versions, v, func(e Entry, v int) int { return cmp.Compare(e.Version, v) })
}

// Open opens (creating if necessary) a repository rooted at dir and
// fills its catalog with one walk.
func Open(dir string) (*Repo, error) {
	if dir == "" {
		return nil, fmt.Errorf("repo: empty root directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("repo: creating root: %w", err)
	}
	r := &Repo{root: dir}
	if _, err := r.Scan(); err != nil {
		return nil, err
	}
	return r, nil
}

// Root returns the repository's root directory.
func (r *Repo) Root() string { return r.root }

// validName guards path traversal: a model name must be a single clean
// path component.
func validName(name string) error {
	if name == "" || name == "." || name == ".." ||
		strings.ContainsAny(name, `/\`) || strings.ContainsRune(name, os.PathSeparator) {
		return fmt.Errorf("repo: invalid model name %q", name)
	}
	return nil
}

// dir returns the model's directory path.
func (r *Repo) dir(name string) string { return filepath.Join(r.root, name) }

// zipPath returns the published path of one version.
func (r *Repo) zipPath(name string, version int) string {
	return filepath.Join(r.root, name, strconv.Itoa(version), zipName)
}

// legacyPath returns the flat-layout path of a model ("<root>/<name>.zip").
func (r *Repo) legacyPath(name string) string {
	return filepath.Join(r.root, name+".zip")
}

// manifestPath returns the integrity manifest path of one version.
func (r *Repo) manifestPath(name string, version int) string {
	return filepath.Join(r.root, name, strconv.Itoa(version), manifestName)
}

// Scan walks the repository, makes the catalog what it found and
// returns every published version, sorted by name then version.
// Incomplete publishes (temp files, version directories without a
// model.zip) are skipped, and so is a labels.json that does not parse.
func (r *Repo) Scan() ([]Entry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	dirents, err := os.ReadDir(r.root)
	if err != nil {
		return nil, fmt.Errorf("repo: scanning root: %w", err)
	}
	// A model is a directory, a legacy flat "<name>.zip", or both.
	index := make(map[string]*model)
	for _, de := range dirents {
		name := de.Name()
		if !de.IsDir() {
			if !strings.HasSuffix(name, ".zip") {
				continue
			}
			name = strings.TrimSuffix(name, ".zip")
		}
		if index[name] != nil || validName(name) != nil {
			continue
		}
		vs, err := r.versions(name)
		if err != nil {
			return nil, err
		}
		m := &model{versions: vs}
		var labels map[string]int
		if b, err := os.ReadFile(filepath.Join(r.dir(name), labelsName)); err == nil && json.Unmarshal(b, &labels) == nil {
			m.persisted = labels
		}
		index[name] = m
	}
	r.idx.Lock()
	r.index = index
	r.idx.Unlock()
	return r.Entries(), nil
}

// versions lists the published versions of one model on disk, sorted
// ascending: the entries of its versioned directory, plus a legacy flat
// zip as version 1 whenever "<name>/1/model.zip" is absent (the same
// precedence Read applies).
func (r *Repo) versions(name string) ([]Entry, error) {
	dirents, err := os.ReadDir(r.dir(name))
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("repo: scanning %s: %w", name, err)
	}
	var out []Entry
	hasV1 := false
	for _, de := range dirents {
		if !de.IsDir() {
			continue
		}
		v, err := strconv.Atoi(de.Name())
		if err != nil || v <= 0 {
			continue
		}
		path := r.zipPath(name, v)
		fi, err := os.Stat(path)
		if err != nil {
			continue // publish in progress or crashed before rename
		}
		hasV1 = hasV1 || v == 1
		out = append(out, Entry{Name: name, Version: v, Path: path, Bytes: fi.Size(), ModTime: fi.ModTime()})
	}
	if !hasV1 {
		if fi, err := os.Stat(r.legacyPath(name)); err == nil && !fi.IsDir() {
			out = append(out, Entry{Name: name, Version: 1, Path: r.legacyPath(name), Bytes: fi.Size(), ModTime: fi.ModTime()})
		}
	}
	sortEntries(out)
	return out, nil
}

func sortEntries(es []Entry) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].Name != es[j].Name {
			return es[i].Name < es[j].Name
		}
		return es[i].Version < es[j].Version
	})
}

// Entries returns every published version in the catalog, sorted by
// name then version.
func (r *Repo) Entries() []Entry {
	r.idx.RLock()
	var out []Entry
	for _, m := range r.index {
		out = append(out, m.versions...)
	}
	r.idx.RUnlock()
	sortEntries(out)
	return out
}

// Versions lists the published versions of one model, ascending, a
// legacy flat zip included.
func (r *Repo) Versions(name string) ([]Entry, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	r.idx.RLock()
	defer r.idx.RUnlock()
	if m := r.index[name]; m != nil {
		return slices.Clone(m.versions), nil
	}
	return nil, nil
}

// Labels returns a model's label→version map as references see it: the
// persisted labels, plus "stable" on the lowest published version when
// none is persisted (empty for a name the catalog does not know).
func (r *Repo) Labels(name string) (map[string]int, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	out := make(map[string]int)
	r.idx.RLock()
	defer r.idx.RUnlock()
	if m := r.index[name]; m != nil {
		maps.Copy(out, m.persisted)
		if v, ok := m.label(runtime.LabelStable); ok {
			out[runtime.LabelStable] = v
		}
	}
	return out, nil
}

// Resolve picks the published version a model reference "name[@ref]"
// selects: "2" or "v2" names version 2, and anything else a label, ""
// meaning "stable" (see model.label). It is runtime.ResolveVersion's
// rule, restated over the catalog's sorted versions so that the index
// holds no map per model. It touches no disk and, on success, allocates
// nothing: the lifecycle tier calls it on every request.
func (r *Repo) Resolve(ref string) (Entry, error) {
	name, part := runtime.SplitRef(ref)
	r.idx.RLock()
	defer r.idx.RUnlock()
	m := r.index[name]
	if m == nil {
		return Entry{}, fmt.Errorf("%w: %q", runtime.ErrModelNotFound, name)
	}
	var v int
	var named bool
	if part == "" {
		v, named = m.label(runtime.LabelStable)
	} else if v, named = runtime.ParseVersion(part); !named {
		v, named = m.label(part)
	}
	if i, ok := m.find(v); named && ok {
		return m.versions[i], nil
	}
	return Entry{}, fmt.Errorf("%w: %q has no published version %q", runtime.ErrModelNotFound, name, part)
}

// update applies fn to name's catalog entry, created if absent. Caller
// holds mu.
func (r *Repo) update(name string, fn func(m *model)) {
	r.idx.Lock()
	defer r.idx.Unlock()
	m := r.index[name]
	if m == nil {
		m = &model{}
		r.index[name] = m
	}
	fn(m)
}

// Read returns the zip bytes of one published version, verified
// against the checksum recorded at Put. A version whose bytes no
// longer match fails with ErrCorruptModel; versions published behind
// the repository's back (rsync'd, legacy flat zips) carry no manifest
// and are returned unverified.
func (r *Repo) Read(name string, version int) ([]byte, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	b, err := os.ReadFile(r.zipPath(name, version))
	if err == nil {
		return b, r.verify(name, version, b)
	}
	if version == 1 {
		if lb, lerr := os.ReadFile(r.legacyPath(name)); lerr == nil {
			return lb, nil
		}
	}
	return nil, fmt.Errorf("repo: %s@%d: %w", name, version, err)
}

// verify checks zip bytes against the version's manifest (missing or
// unparseable manifest = externally published, nothing to check).
func (r *Repo) verify(name string, version int, zip []byte) error {
	raw, err := os.ReadFile(r.manifestPath(name, version))
	if err != nil {
		return nil
	}
	var m manifest
	if json.Unmarshal(raw, &m) != nil || m.SHA256 == "" {
		return nil
	}
	sum := sha256.Sum256(zip)
	if got := hex.EncodeToString(sum[:]); got != m.SHA256 {
		return fmt.Errorf("%w: %s@%d: sha256 %s, manifest records %s", ErrCorruptModel, name, version, got, m.SHA256)
	}
	return nil
}

// Put publishes zip bytes as one version of a model and returns its
// entry. version <= 0 picks the next free version. The publish is
// atomic — write to a temp file, then rename — so concurrent readers
// never see a partial model. Publishing over an existing version is an
// error (versions are immutable once published).
func (r *Repo) Put(name string, version int, zip []byte) (Entry, error) {
	if err := validName(name); err != nil {
		return Entry{}, err
	}
	if len(zip) == 0 {
		return Entry{}, fmt.Errorf("repo: empty model bytes for %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if version <= 0 {
		// From disk, not the catalog: a version written behind the
		// repository's back must not be overwritten.
		vs, err := r.versions(name)
		if err != nil {
			return Entry{}, fmt.Errorf("%w: selecting version of %s: %v", ErrStorage, name, err)
		}
		version = 1
		if n := len(vs); n > 0 {
			version = vs[n-1].Version + 1
		}
	} else if _, err := os.Stat(r.zipPath(name, version)); err == nil {
		return Entry{}, fmt.Errorf("repo: %s@%d already published", name, version)
	}
	vdir := filepath.Join(r.dir(name), strconv.Itoa(version))
	// Any failure from here on must leave no partial version behind:
	// the tmp file is removed and the version directory — readers never
	// saw it, there is no model.zip in it yet — is cleaned up, so a
	// full disk or broken permissions cost one typed 503, not a corrupt
	// directory the next Scan trips over.
	cleanup := func(tmpName string) {
		if tmpName != "" {
			os.Remove(tmpName)
		}
		if _, err := os.Stat(r.zipPath(name, version)); os.IsNotExist(err) {
			os.RemoveAll(vdir)
		}
	}
	storageErr := func(op string, err error) (Entry, error) {
		return Entry{}, fmt.Errorf("%w: %s %s@%d: %v", ErrStorage, op, name, version, err)
	}
	if err := os.MkdirAll(vdir, 0o755); err != nil {
		return storageErr("creating", err)
	}
	// The manifest publishes first (atomically): a crash between the
	// two renames leaves a manifest with no model.zip, which Scan
	// ignores and the next Put of the same version overwrites.
	sum := sha256.Sum256(zip)
	mraw, _ := json.Marshal(manifest{SHA256: hex.EncodeToString(sum[:]), Bytes: int64(len(zip))})
	if err := atomicWrite(vdir, manifestName, mraw); err != nil {
		cleanup("")
		return storageErr("recording manifest of", err)
	}
	tmp, err := os.CreateTemp(vdir, ".put-*")
	if err != nil {
		cleanup("")
		return storageErr("staging", err)
	}
	if _, err := tmp.Write(zip); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		cleanup(tmp.Name())
		return storageErr("writing", err)
	}
	final := r.zipPath(name, version)
	if err := os.Rename(tmp.Name(), final); err != nil {
		cleanup(tmp.Name())
		return storageErr("publishing", err)
	}
	fi, err := os.Stat(final)
	if err != nil {
		return storageErr("publishing", err)
	}
	e := Entry{Name: name, Version: version, Path: final, Bytes: fi.Size(), ModTime: fi.ModTime()}
	r.update(name, func(m *model) {
		if i, ok := m.find(version); ok {
			m.versions[i] = e
		} else {
			m.versions = slices.Insert(m.versions, i, e)
		}
	})
	return e, nil
}

// atomicWrite writes bytes to dir/name via a temp file and rename.
func atomicWrite(dir, name string, b []byte) error {
	tmp, err := os.CreateTemp(dir, "."+name+"-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(b); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Delete removes one version (version > 0) with the labels that point
// at it, or the whole model (version <= 0), including its labels and
// any legacy flat zip.
func (r *Repo) Delete(name string, version int) error {
	if err := validName(name); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if version <= 0 {
		if err := os.RemoveAll(r.dir(name)); err != nil {
			return fmt.Errorf("repo: %w", err)
		}
		if err := os.Remove(r.legacyPath(name)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("repo: %w", err)
		}
		r.idx.Lock()
		delete(r.index, name)
		r.idx.Unlock()
		return nil
	}
	if err := os.RemoveAll(filepath.Join(r.dir(name), strconv.Itoa(version))); err != nil {
		return fmt.Errorf("repo: %w", err)
	}
	// A legacy flat zip surfaces as version 1: deleting version 1 must
	// remove it too, or the "deleted" version resurrects on the next
	// scan.
	if version == 1 {
		if err := os.Remove(r.legacyPath(name)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("repo: %w", err)
		}
	}
	r.idx.RLock()
	var persisted map[string]int
	if m := r.index[name]; m != nil {
		persisted = m.persisted
	}
	r.idx.RUnlock()
	kept := make(map[string]int, len(persisted))
	for l, v := range persisted {
		if v != version {
			kept[l] = v
		}
	}
	if len(kept) == len(persisted) {
		kept = persisted
	} else if err := r.writeLabels(name, kept); err != nil {
		return err
	}
	r.update(name, func(m *model) {
		if i, ok := m.find(version); ok {
			m.versions = slices.Delete(m.versions, i, i+1)
		}
		m.persisted = kept
	})
	return nil
}

// PutLabels points each given label at its version and persists the
// model's whole label map atomically, so a node restart (or a cold
// reload) restores label routing exactly as the operator left it.
func (r *Repo) PutLabels(name string, labels map[string]int) error {
	if err := validName(name); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	merged := make(map[string]int, len(labels))
	r.idx.RLock()
	if m := r.index[name]; m != nil {
		maps.Copy(merged, m.persisted)
	}
	r.idx.RUnlock()
	maps.Copy(merged, labels)
	if err := r.writeLabels(name, merged); err != nil {
		return err
	}
	r.update(name, func(m *model) { m.persisted = merged })
	return nil
}

// writeLabels atomically writes a model's labels.json. Caller holds mu.
func (r *Repo) writeLabels(name string, labels map[string]int) error {
	b, err := json.Marshal(labels)
	if err != nil {
		return fmt.Errorf("repo: %w", err)
	}
	dir := r.dir(name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("repo: %w", err)
	}
	if err := atomicWrite(dir, labelsName, b); err != nil {
		return fmt.Errorf("repo: %w", err)
	}
	return nil
}

// --- poll loop ---

// Poller periodically rescans the repository, so that versions and
// labels written behind its back (rsync'd by an offline trainer) enter
// the catalog. It runs ONE goroutine, created by Repo.Poll and torn
// down by Stop; a repository that is never polled costs zero
// goroutines.
type Poller struct {
	stop chan struct{}
	done chan struct{}
}

// Poll starts a loop that runs Scan every interval. Scan errors are
// swallowed — the next tick retries — so a transiently unreadable
// directory cannot kill the loop, and the catalog keeps what it knew.
func (r *Repo) Poll(interval time.Duration) *Poller {
	if interval <= 0 {
		interval = time.Second
	}
	p := &Poller{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				_, _ = r.Scan()
			}
		}
	}()
	return p
}

// Stop tears the poll loop down and waits for its goroutine to exit.
func (p *Poller) Stop() {
	select {
	case <-p.stop:
	default:
		close(p.stop)
	}
	<-p.done
}
