// Package repo implements the on-disk model repository behind the
// lifecycle tier: the durable, versioned store a serving node loads
// models from and evicts them back to. The layout is one directory per
// model with one numbered subdirectory per version:
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
package repo

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
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

// Repo is a versioned on-disk model repository rooted at one
// directory. All methods are safe for concurrent use; publishes are
// serialized per repository, scans run lock-free against the
// atomically renamed layout.
type Repo struct {
	root string

	// mu serializes writers (Put/Delete/PutLabels): next-free-version
	// selection and label read-modify-write must not interleave.
	mu sync.Mutex

	puts  atomic.Uint64
	scans atomic.Uint64
}

// Open opens (creating if necessary) a repository rooted at dir.
func Open(dir string) (*Repo, error) {
	if dir == "" {
		return nil, fmt.Errorf("repo: empty root directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("repo: creating root: %w", err)
	}
	return &Repo{root: dir}, nil
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

// Scan walks the repository and returns every published version,
// sorted by name then version. Incomplete publishes (temp files,
// version directories without a model.zip) are skipped.
func (r *Repo) Scan() ([]Entry, error) {
	r.scans.Add(1)
	dirents, err := os.ReadDir(r.root)
	if err != nil {
		return nil, fmt.Errorf("repo: scanning root: %w", err)
	}
	// A model is a directory, a legacy flat "<name>.zip", or both.
	var out []Entry
	seen := make(map[string]bool)
	for _, de := range dirents {
		name := de.Name()
		if !de.IsDir() {
			if !strings.HasSuffix(name, ".zip") {
				continue
			}
			name = strings.TrimSuffix(name, ".zip")
		}
		if seen[name] || validName(name) != nil {
			continue
		}
		seen[name] = true
		vs, err := r.versions(name)
		if err != nil {
			return nil, err
		}
		out = append(out, vs...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Version < out[j].Version
	})
	return out, nil
}

// versions lists the published versions of one model, sorted
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
	sort.Slice(out, func(i, j int) bool { return out[i].Version < out[j].Version })
	return out, nil
}

// Versions lists the published versions of one model, a legacy flat
// zip included (see versions).
func (r *Repo) Versions(name string) ([]Entry, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	return r.versions(name)
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
		vs, err := r.Versions(name)
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
	r.puts.Add(1)
	fi, err := os.Stat(final)
	if err != nil {
		return storageErr("publishing", err)
	}
	return Entry{Name: name, Version: version, Path: final, Bytes: fi.Size(), ModTime: fi.ModTime()}, nil
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

// Delete removes one version (version > 0) or the whole model
// (version <= 0), including its labels and any legacy flat zip.
func (r *Repo) Delete(name string, version int) error {
	if err := validName(name); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if version > 0 {
		if err := os.RemoveAll(filepath.Join(r.dir(name), strconv.Itoa(version))); err != nil {
			return fmt.Errorf("repo: %w", err)
		}
		// A legacy flat zip surfaces as version 1: deleting version 1
		// must remove it too, or the "deleted" version resurrects on
		// the next scan.
		if version == 1 {
			if err := os.Remove(r.legacyPath(name)); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("repo: %w", err)
			}
		}
		return nil
	}
	if err := os.RemoveAll(r.dir(name)); err != nil {
		return fmt.Errorf("repo: %w", err)
	}
	if err := os.Remove(r.legacyPath(name)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("repo: %w", err)
	}
	return nil
}

// Labels reads the persisted label→version map of a model (empty when
// none was ever persisted).
func (r *Repo) Labels(name string) (map[string]int, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	b, err := os.ReadFile(filepath.Join(r.dir(name), labelsName))
	if err != nil {
		if os.IsNotExist(err) {
			return map[string]int{}, nil
		}
		return nil, fmt.Errorf("repo: %w", err)
	}
	labels := make(map[string]int)
	if err := json.Unmarshal(b, &labels); err != nil {
		return nil, fmt.Errorf("repo: labels of %q: %w", name, err)
	}
	return labels, nil
}

// PutLabels atomically persists a model's full label→version map, so a
// node restart (or a cold reload) restores label routing exactly as
// the operator left it.
func (r *Repo) PutLabels(name string, labels map[string]int) error {
	if err := validName(name); err != nil {
		return err
	}
	b, err := json.Marshal(labels)
	if err != nil {
		return fmt.Errorf("repo: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	dir := r.dir(name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("repo: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".labels-*")
	if err != nil {
		return fmt.Errorf("repo: %w", err)
	}
	if _, err := tmp.Write(b); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("repo: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, labelsName)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("repo: %w", err)
	}
	return nil
}

// Stats is a snapshot of repository counters.
type Stats struct {
	Root  string `json:"root"`
	Puts  uint64 `json:"puts"`
	Scans uint64 `json:"scans"`
}

// Stats returns a snapshot of the repository counters.
func (r *Repo) Stats() Stats {
	return Stats{Root: r.root, Puts: r.puts.Load(), Scans: r.scans.Load()}
}

// --- poll loop ---

// Poller periodically rescans the repository and reports newly
// published versions. It runs ONE goroutine, created by Repo.Poll and
// torn down by Stop; a repository that is never polled costs zero
// goroutines.
type Poller struct {
	stop chan struct{}
	done chan struct{}
}

// Poll starts a poll loop that invokes onNew with versions that
// appeared since the previous scan (or since the initial seed scan).
// Scan errors are swallowed — the next tick retries — so a transiently
// unreadable directory cannot kill the loop.
func (r *Repo) Poll(interval time.Duration, onNew func(added []Entry)) *Poller {
	if interval <= 0 {
		interval = time.Second
	}
	p := &Poller{stop: make(chan struct{}), done: make(chan struct{})}
	seen := make(map[string]bool)
	if entries, err := r.Scan(); err == nil {
		for _, e := range entries {
			seen[e.Ref()] = true
		}
	}
	go func() {
		defer close(p.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
			entries, err := r.Scan()
			if err != nil {
				continue
			}
			var added []Entry
			for _, e := range entries {
				if !seen[e.Ref()] {
					seen[e.Ref()] = true
					added = append(added, e)
				}
			}
			if len(added) > 0 {
				onNew(added)
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
