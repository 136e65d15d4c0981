// Package lifecycle is the model storage tier: an Engine middleware
// that keeps the full model catalog on disk (internal/repo) and only a
// RAM-budgeted working set resident in the runtime. The unit of
// residency is one version: every reference is resolved once, against
// the repository's catalog, and exactly that name@version is loaded,
// leased, evicted and dispatched. Versions are admitted under a
// configurable budget using the runtime's dedup-aware footprint
// accounting, evicted back to disk LRU-first (pinned versions exempt),
// and cold-loaded lazily on the first predict that misses —
// single-flight, so a thundering herd on a cold version pays for
// exactly one load of one archive. Cold-start latency is tracked in its
// own histogram: the PRETZEL paper's observation that most models are
// cold most of the time makes the disk→RAM path a first-class serving
// metric, not an operational footnote.
//
// The repository is the node's one catalog of names, versions and
// labels; the manager keeps only residency records, and a name the
// repository does not know is ErrModelNotFound. The manager wraps a
// *serving.Local rather than any serving.Engine: it compiles cold
// versions into the local runtime's stores and charges each one the
// runtime MemBytes delta its load produced, which only an in-process
// runtime can answer. It implements serving.Engine itself (and Unwrap,
// so serving.As sees through it), so the chaos injector and the HTTP
// front end stack on top unchanged.
package lifecycle

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pretzel/internal/metrics"
	"pretzel/internal/ops"
	"pretzel/internal/oven"
	"pretzel/internal/pipeline"
	"pretzel/internal/repo"
	"pretzel/internal/runtime"
	"pretzel/internal/serving"
)

// Model lifecycle states, surfaced via ModelInfo.State and /statz.
const (
	StateWarm     = "warm"     // resident in the runtime, serving
	StateCold     = "cold"     // on disk only; first predict loads it
	StateLoading  = "loading"  // disk→RAM load in progress
	StateEvicting = "evicting" // draining out of the runtime
)

// Config parameterizes a Manager.
type Config struct {
	// RAMBudget caps the summed marginal footprint of warm versions in
	// bytes (0 = unlimited: everything loads and nothing evicts). A
	// single version larger than the whole budget still loads —
	// requests are never failed for budget reasons — and pinned
	// versions are exempt, so either can push residency above the cap.
	RAMBudget int64
	// LazyLoad skips the startup preload: every model starts cold and
	// is loaded by its first predict. The default (false) preloads each
	// repository model's stable version at construction until the
	// budget is reached.
	LazyLoad bool
	// PollInterval, when > 0, rescans the repository for versions
	// published behind the server's back (e.g. rsync'd by an offline
	// trainer). 0 disables polling: no goroutine exists, and a quiet
	// manager does zero background work.
	PollInterval time.Duration
	// Compile configures compilation of loaded models (nil =
	// oven.DefaultOptions).
	Compile *oven.Options
}

// record is one version's residency state. A record exists while
// its version is loading, warm or evicting, and while a failed load of
// it is negative-cached.
type record struct {
	name    string
	version int
	ref     string // "name@version": what dispatch hands the runtime
	state   string
	// pinned exempts the version from budget eviction.
	pinned bool
	// bytes is the measured marginal footprint while warm (runtime
	// MemBytes delta at load).
	bytes int64
	// lastAccess is the LRU clock (monotonic counter, not wall time:
	// Predict only does an atomic add on the hot path).
	lastAccess atomic.Int64
	// inflight counts predicts dispatched against this version. It is
	// incremented under mu (read lock suffices) and checked by the
	// evictor under the write lock, so a version with live requests is
	// never chosen as an eviction victim: the warm-check→dispatch
	// window cannot race an eviction.
	inflight atomic.Int64
	// badErr/badUntil negative-cache a failed load: until badUntil,
	// cold predicts fail fast with badErr instead of redoing the disk
	// read + compile on every request against a corrupt version.
	badErr   error
	badUntil time.Time
}

// verKey keys residency records.
type verKey struct {
	name    string
	version int
}

// loadFailCooldown is how long a failed load is negative-cached before
// a predict retries it from disk.
const loadFailCooldown = 2 * time.Second

// Manager is the lifecycle middleware. See the package comment.
type Manager struct {
	inner *serving.Local
	rt    *runtime.Runtime
	repo  *repo.Repo
	cfg   Config
	comp  oven.Options

	// mu guards entries and every record's mutable fields. The
	// predict fast path takes only the read lock.
	mu      sync.RWMutex
	entries map[verKey]*record

	// loadMu serializes every slow-path mutation (load, evict,
	// register, unregister, label): runtime footprint deltas are only
	// exact when one mutation runs at a time, and holding it across a
	// load is what makes cold loads single-flight. Lock order is
	// strictly loadMu → mu; mu is never held across a runtime call that
	// drains.
	loadMu sync.Mutex

	clock     atomic.Int64 // LRU tick source
	resident  atomic.Int64 // summed warm marginal footprint
	coldLoads atomic.Uint64
	evictions atomic.Uint64
	loadErrs  atomic.Uint64
	coldStart metrics.Histogram

	poller *repo.Poller
}

// New builds a Manager over a local engine and an opened repository
// and (unless cfg.LazyLoad) preloads each model's stable version in
// name order until the budget is reached.
func New(inner *serving.Local, r *repo.Repo, cfg Config) (*Manager, error) {
	co := oven.DefaultOptions()
	if cfg.Compile != nil {
		co = *cfg.Compile
	}
	if co.Plans == nil {
		// Cold loads must intern stages in the same plan store the
		// serving engine uses, or reloading an evicted variant would
		// duplicate stages its warm siblings still share.
		co.Plans = inner.Runtime().PlanStore()
	}
	m := &Manager{
		inner:   inner,
		rt:      inner.Runtime(),
		repo:    r,
		cfg:     cfg,
		comp:    co,
		entries: make(map[verKey]*record),
	}
	if !cfg.LazyLoad {
		m.loadMu.Lock()
		prev := ""
		for _, e := range r.Entries() {
			if e.Name == prev {
				continue
			}
			prev = e.Name
			ent, err := r.Resolve(e.Name)
			if err != nil {
				continue // a persisted stable label names no published version
			}
			// Preload never evicts: fill until the budget is hit and
			// leave the tail cold for lazy loading.
			if _, err := m.warmLocked(ent, false); err != nil && !errors.Is(err, errBudget) {
				m.loadMu.Unlock()
				return nil, fmt.Errorf("lifecycle: preloading %q: %w", e.Name, err)
			}
		}
		m.loadMu.Unlock()
	}
	if cfg.PollInterval > 0 {
		m.poller = r.Poll(cfg.PollInterval)
	}
	return m, nil
}

func (m *Manager) touch(rec *record) { rec.lastAccess.Store(m.clock.Add(1)) }

// estimateBytes upper-bounds a pipeline's runtime footprint before
// compilation: parameter bytes plus the runtime's per-version and
// per-stage overheads. It ignores cross-model dedup (stages can only
// shrink under fusion, parameters under interning), so admission using
// it never under-counts.
func estimateBytes(p *pipeline.Pipeline) int64 {
	n := int64(256)
	for _, node := range p.Nodes {
		n += 128 + int64(ops.MemBytes(node.Op))
	}
	return n
}

// errBudget reports a preload skipped because the version does not fit
// without evicting (never surfaced to callers).
var errBudget = errors.New("lifecycle: over budget")

// warmLocked is the one cold→warm path: it makes the published version
// ent resident by importing its one archive. A warm version is a no-op,
// and while a failed load cools down the cached error is returned
// instead of redoing the disk read + compile. Caller holds loadMu — the
// single-flight gate, which also excludes eviction. When allowEvict is
// set, LRU victims are evicted until the estimate fits (a version
// larger than the whole budget still loads — availability beats the
// cap); when clear, a version that does not fit is skipped with
// errBudget.
func (m *Manager) warmLocked(ent repo.Entry, allowEvict bool) (*record, error) {
	k := verKey{ent.Name, ent.Version}
	m.mu.Lock()
	rec := m.entries[k]
	switch {
	case rec == nil:
		rec = &record{name: ent.Name, version: ent.Version, ref: ent.Ref()}
		m.entries[k] = rec
	case rec.state == StateWarm:
		m.mu.Unlock()
		return rec, nil
	case time.Now().Before(rec.badUntil):
		m.mu.Unlock()
		return nil, rec.badErr
	}
	rec.state = StateLoading
	m.mu.Unlock()

	start := time.Now()
	err := m.load(rec, allowEvict)
	if err != nil {
		m.mu.Lock()
		if errors.Is(err, errBudget) {
			delete(m.entries, k)
		} else {
			rec.state, rec.badErr, rec.badUntil = StateCold, err, time.Now().Add(loadFailCooldown)
		}
		m.mu.Unlock()
		return nil, err
	}
	m.coldLoads.Add(1)
	m.coldStart.Record(time.Since(start))
	return rec, nil
}

// load reads, imports and installs rec's version. Caller holds loadMu.
func (m *Manager) load(rec *record, allowEvict bool) error {
	raw, err := m.repo.Read(rec.name, rec.version)
	var p *pipeline.Pipeline
	if err == nil {
		p, err = pipeline.ImportIndexed(raw, m.rt.ObjectStore())
	}
	if err == nil {
		if !m.makeRoom(estimateBytes(p), allowEvict) {
			return errBudget
		}
		_, err = m.install(rec, p)
	}
	if err != nil {
		m.loadErrs.Add(1)
		// Double-wrap: callers branch on serving.ErrBadModel, and the
		// cause (e.g. repo.ErrCorruptModel) must stay errors.Is-able
		// through the negative cache.
		return fmt.Errorf("%w: %s: %w", serving.ErrBadModel, rec.ref, err)
	}
	return nil
}

// install compiles and registers rec's imported version through the
// local engine's one install path and charges rec the residency it
// added. Caller holds loadMu, which is what makes the MemBytes delta
// exact.
func (m *Manager) install(rec *record, p *pipeline.Pipeline) (serving.RegisterResult, error) {
	res, err := m.inner.Install(p, rec.name, rec.version, m.comp)
	if err != nil {
		return res, err
	}
	m.mu.Lock()
	rec.state, rec.bytes, rec.badErr, rec.badUntil = StateWarm, int64(res.NewBytes), nil, time.Time{}
	m.mu.Unlock()
	m.resident.Add(int64(res.NewBytes))
	m.touch(rec)
	return res, nil
}

// makeRoom evicts LRU victims until need bytes fit under the budget.
// Caller holds loadMu. Returns whether need now fits (always true when
// allowEvict and the budget is simply too small: the caller loads
// anyway rather than failing requests).
func (m *Manager) makeRoom(need int64, allowEvict bool) bool {
	if m.cfg.RAMBudget <= 0 {
		return true
	}
	for m.resident.Load()+need > m.cfg.RAMBudget {
		if !allowEvict {
			return false
		}
		if !m.evictOne(nil) {
			// Nothing evictable left; load anyway.
			return true
		}
	}
	return true
}

// evictOne evicts the least-recently-used warm, unpinned version (never
// exclude). Caller holds loadMu. The record is marked evicting under mu
// but mu is RELEASED across the runtime drain, so in-flight predicts
// on the victim finish normally.
func (m *Manager) evictOne(exclude *record) bool {
	m.mu.Lock()
	var victim *record
	for _, rec := range m.entries {
		if rec.state != StateWarm || rec.pinned || rec == exclude || rec.inflight.Load() != 0 {
			continue
		}
		if victim == nil || rec.lastAccess.Load() < victim.lastAccess.Load() {
			victim = rec
		}
	}
	if victim == nil {
		m.mu.Unlock()
		return false
	}
	victim.state = StateEvicting
	m.mu.Unlock()

	if err := m.drop(victim); err != nil {
		m.mu.Lock()
		victim.state = StateWarm
		m.mu.Unlock()
		return false
	}
	m.evictions.Add(1)
	return true
}

// drop is the one removal path — eviction and unregister alike: it
// takes rec's version out of the runtime (when it is there) and forgets
// the record, crediting back the bytes ACTUALLY freed, not the marginal
// delta charged at load time: once the first loader of shared
// parameters leaves, the shared bytes stay resident (other warm
// versions still hold them) and crediting the load-time charge would
// make the counter under-report real RAM. Caller holds loadMu, which
// makes the MemBytes delta exact.
func (m *Manager) drop(rec *record) error {
	before := m.rt.MemBytes()
	if err := m.rt.Unregister(rec.ref); err != nil && !errors.Is(err, runtime.ErrModelNotFound) {
		return err
	}
	m.resident.Add(-int64(before - m.rt.MemBytes()))
	m.mu.Lock()
	delete(m.entries, verKey{rec.name, rec.version})
	m.mu.Unlock()
	return nil
}

// releaseLease returns a predict's in-flight lease and re-asserts the
// budget: a burst of concurrent requests can hold more than a budget's
// worth of versions in RAM at once (in-flight versions are never
// evicted — availability wins over the cap), and with no further cold
// load there would be nothing to shrink residency back. The overshoot
// check is one atomic load; the trim itself runs only when over budget
// and only in whichever request happens to win the TryLock — a held
// loadMu means a load or evict is already running and will enforce the
// budget itself.
func (m *Manager) releaseLease(rec *record) {
	rec.inflight.Add(-1)
	if m.cfg.RAMBudget <= 0 || m.resident.Load() <= m.cfg.RAMBudget {
		return
	}
	if !m.loadMu.TryLock() {
		return
	}
	defer m.loadMu.Unlock()
	for m.resident.Load() > m.cfg.RAMBudget {
		// The just-served version is excluded: it is the MRU, and
		// evicting it here would make an over-budget version thrash on
		// every single request. If it alone overshoots, the overshoot
		// stands — the same availability-over-cap rule makeRoom applies.
		if !m.evictOne(rec) {
			return // everything left is pinned, busy or rec itself
		}
	}
}

// acquire resolves ref against the repository, makes the version it
// names resident (loading it if cold) and takes an in-flight lease on
// its record (caller MUST give it back with releaseLease after
// dispatch).
func (m *Manager) acquire(ref string) (*record, error) {
	ent, err := m.repo.Resolve(ref)
	if err != nil {
		return nil, err
	}
	// Fast path: the warm check and the lease are taken under the same
	// read-lock section the evictor's victim scan excludes, so a version
	// observed warm here cannot be evicted before the lease lands.
	m.mu.RLock()
	if rec := m.entries[verKey{ent.Name, ent.Version}]; rec != nil && rec.state == StateWarm {
		rec.inflight.Add(1)
		m.mu.RUnlock()
		m.touch(rec)
		return rec, nil
	}
	m.mu.RUnlock()
	// Slow path. loadMu is the single-flight gate: a herd of cold
	// predicts queues here, the first loads, the rest observe warm.
	// Holding it also excludes eviction, so the lease is race-free. A
	// write may have moved or deleted what ref named while this request
	// waited, so it resolves again under the gate.
	m.loadMu.Lock()
	defer m.loadMu.Unlock()
	if ent, err = m.repo.Resolve(ref); err != nil {
		return nil, err
	}
	rec, err := m.warmLocked(ent, true)
	if err != nil {
		return nil, err
	}
	rec.inflight.Add(1)
	m.touch(rec)
	return rec, nil
}

// serve runs one dispatch to the inner engine under an in-flight lease
// on the version the reference resolves to, cold-loading it on a miss.
// It retries when the version left the runtime between the lease and
// the dispatch (an unregister does not wait for leases), so a request
// that resolved through a label just moved off a deleted version is
// served by the version the label names now.
func serve[T any](ctx context.Context, m *Manager, model string, dispatch func(ref string) (T, error)) (T, error) {
	for attempt := 0; ; attempt++ {
		rec, err := m.acquire(model)
		if err != nil {
			var none T
			return none, err
		}
		out, err := dispatch(rec.ref)
		m.releaseLease(rec)
		if errors.Is(err, runtime.ErrModelNotFound) && attempt < 8 && ctx.Err() == nil {
			continue
		}
		return out, err
	}
}

// Predict serves one input, cold-loading the version on a miss.
func (m *Manager) Predict(ctx context.Context, model, input string, opts serving.PredictOptions) ([]float32, error) {
	return serve(ctx, m, model, func(ref string) ([]float32, error) { return m.inner.Predict(ctx, ref, input, opts) })
}

// PredictBatch serves a batch, cold-loading the version on a miss.
func (m *Manager) PredictBatch(ctx context.Context, model string, inputs []string, opts serving.PredictOptions) ([][]float32, error) {
	return serve(ctx, m, model, func(ref string) ([][]float32, error) { return m.inner.PredictBatch(ctx, ref, inputs, opts) })
}

// Resolve resolves a reference against the repository WITHOUT loading
// (the front end resolves every cached request, so this must stay cheap
// and side-effect free). It names the version a predict on ref serves.
func (m *Manager) Resolve(ref string) (string, int, error) {
	ent, err := m.repo.Resolve(ref)
	return ent.Name, ent.Version, err
}

// info builds the white-box view of one model from its published
// versions (ascending, non-empty): catalog labels, runtime detail for
// the resident versions, and the residency records' state, bytes and
// pin. A model with nothing resident reports its on-disk bytes.
func (m *Manager) info(vs []repo.Entry) runtime.ModelInfo {
	name := vs[0].Name
	mi, err := m.inner.ModelInfo(name)
	if err != nil {
		mi = runtime.ModelInfo{Name: name}
	}
	loaded := make(map[int]runtime.VersionInfo, len(mi.Versions))
	for _, vi := range mi.Versions {
		loaded[vi.Version] = vi
	}
	mi.Labels, _ = m.repo.Labels(name)
	mi.Versions, mi.State = nil, StateCold
	var onDisk int64
	m.mu.RLock()
	for _, e := range vs {
		vi, ok := loaded[e.Version]
		if !ok {
			vi = runtime.VersionInfo{Version: e.Version}
		}
		mi.Versions = append(mi.Versions, vi)
		onDisk += e.Bytes
		rec := m.entries[verKey{name, e.Version}]
		if rec == nil {
			continue
		}
		if rec.state == StateWarm || mi.State == StateCold {
			mi.State = rec.state
		}
		mi.MemBytes += int(rec.bytes)
		mi.Pinned = mi.Pinned || rec.pinned
	}
	m.mu.RUnlock()
	if mi.MemBytes == 0 {
		mi.MemBytes = int(onDisk)
	}
	return mi
}

// Models lists every model in the repository — resident versions with
// runtime detail, cold ones from the catalog — sorted by name.
func (m *Manager) Models() []runtime.ModelInfo {
	var out []runtime.ModelInfo
	es := m.repo.Entries()
	for i := 0; i < len(es); {
		j := i + 1
		for j < len(es) && es[j].Name == es[i].Name {
			j++
		}
		out = append(out, m.info(es[i:j]))
		i = j
	}
	return out
}

// ModelInfo returns one model's white-box view by bare name, whether
// resident or cold.
func (m *Manager) ModelInfo(name string) (runtime.ModelInfo, error) {
	vs, _ := m.repo.Versions(name)
	if len(vs) == 0 {
		return runtime.ModelInfo{}, fmt.Errorf("%w: %q", runtime.ErrModelNotFound, name)
	}
	return m.info(vs), nil
}

// Register validates an upload, persists it to the repository FIRST
// (durability: a crash after Put recovers the model on restart), then
// makes the new version — and only it — resident.
func (m *Manager) Register(zip []byte, opts serving.RegisterOptions) (serving.RegisterResult, error) {
	p, err := pipeline.ImportIndexed(zip, m.rt.ObjectStore())
	if err != nil {
		return serving.RegisterResult{}, fmt.Errorf("%w: importing: %v", serving.ErrBadModel, err)
	}
	name := opts.Name
	if name == "" {
		name, _ = runtime.SplitRef(p.Name)
	}

	m.loadMu.Lock()
	defer m.loadMu.Unlock()

	ent, err := m.repo.Put(name, opts.Version, zip)
	if err != nil {
		return serving.RegisterResult{}, err
	}
	k := verKey{ent.Name, ent.Version}
	rec := &record{name: ent.Name, version: ent.Version, ref: ent.Ref(), state: StateLoading}
	m.mu.Lock()
	m.entries[k] = rec
	m.mu.Unlock()
	m.makeRoom(estimateBytes(p), true)
	res, err := m.install(rec, p)
	if err != nil {
		m.mu.Lock()
		delete(m.entries, k)
		m.mu.Unlock()
		return serving.RegisterResult{}, err
	}
	if opts.Label != "" {
		if err := m.setLabelLocked(name, opts.Label, ent.Version); err != nil {
			return serving.RegisterResult{}, err
		}
	}
	return res, nil
}

// setLabelLocked points a label at a published version in the
// repository, which every later resolve reads. Caller holds loadMu.
func (m *Manager) setLabelLocked(name, label string, version int) error {
	if err := runtime.CheckLabel(label); err != nil {
		return err
	}
	if _, err := m.repo.Resolve(name + "@" + strconv.Itoa(version)); err != nil {
		return err
	}
	return m.repo.PutLabels(name, map[string]int{label: version})
}

// SetLabel points a label at a version, persisting through the
// repository; resolves follow it at once, resident or not.
func (m *Manager) SetLabel(name, label string, version int) error {
	m.loadMu.Lock()
	defer m.loadMu.Unlock()
	return m.setLabelLocked(name, label, version)
}

// Unregister removes a reference from the runtime AND the repository:
// a bare name deletes the whole model, name@ref the one version it
// resolves to (with any labels pointing at it).
func (m *Manager) Unregister(ref string) error {
	m.loadMu.Lock()
	defer m.loadMu.Unlock()

	name, part := runtime.SplitRef(ref)
	version := 0
	if part == "" {
		if vs, _ := m.repo.Versions(name); len(vs) == 0 {
			return fmt.Errorf("%w: %q", runtime.ErrModelNotFound, name)
		}
	} else {
		ent, err := m.repo.Resolve(ref)
		if err != nil {
			return err
		}
		version = ent.Version
	}
	var gone []*record
	m.mu.RLock()
	for k, rec := range m.entries {
		if k.name == name && (version == 0 || k.version == version) {
			gone = append(gone, rec)
		}
	}
	m.mu.RUnlock()
	for _, rec := range gone {
		if err := m.drop(rec); err != nil {
			return err
		}
	}
	return m.repo.Delete(name, version)
}

// Warm makes the version a reference resolves to resident without
// serving a request: the pre-warm primitive behind POST
// /models/{name}/warm. It is a predict's cold→warm step with nothing
// dispatched: a warm version is a cheap no-op (plus an LRU touch, so a
// freshly pre-warmed version is not the next eviction victim), a cold
// one takes the same single-flight, negative-cached load.
func (m *Manager) Warm(name string) error {
	rec, err := m.acquire(name)
	if err != nil {
		return err
	}
	m.releaseLease(rec)
	return nil
}

// ExportVersion reads one published version's zip bytes back out of
// the repository (integrity-verified), so a rebalancer can replicate a
// model to a new owner without keeping the original upload around.
func (m *Manager) ExportVersion(name string, version int) ([]byte, error) {
	b, err := m.repo.Read(name, version)
	if err == nil {
		return b, nil
	}
	if errors.Is(err, repo.ErrCorruptModel) {
		return nil, err
	}
	return nil, fmt.Errorf("%w: %s@%d", runtime.ErrModelNotFound, name, version)
}

// Pin marks the version a reference resolves to exempt from
// (pinned=true) or subject to (pinned=false) budget eviction; pinning a
// cold version loads it.
func (m *Manager) Pin(name string, pinned bool) error {
	m.loadMu.Lock()
	defer m.loadMu.Unlock()
	ent, err := m.repo.Resolve(name)
	if err != nil {
		return err
	}
	if pinned {
		if _, err := m.warmLocked(ent, true); err != nil {
			return err
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if rec := m.entries[verKey{ent.Name, ent.Version}]; rec != nil {
		rec.pinned = pinned
	}
	return nil
}

// Unwrap returns the wrapped local engine, so serving.As reaches the
// capabilities the manager does not intercept (kernel fault hook,
// quarantine report).
func (m *Manager) Unwrap() serving.Engine { return m.inner }

// LStats snapshots the lifecycle tier's white-box counters. Warm,
// Loading and Pinned count resident versions; Cold counts the published
// versions that are not resident.
func (m *Manager) LStats() serving.LifecycleStats {
	ls := serving.LifecycleStats{
		ResidentBytes: m.resident.Load(),
		BudgetBytes:   m.cfg.RAMBudget,
		Lazy:          m.cfg.LazyLoad,
		ColdLoads:     m.coldLoads.Load(),
		Evictions:     m.evictions.Load(),
		LoadErrs:      m.loadErrs.Load(),
		ColdStart:     m.coldStart.Snapshot(),
		RepoRoot:      m.repo.Root(),
	}
	m.mu.RLock()
	for _, rec := range m.entries {
		switch rec.state {
		case StateWarm, StateEvicting:
			ls.Warm++
		case StateLoading:
			ls.Loading++
		}
		if rec.pinned {
			ls.Pinned++
		}
	}
	m.mu.RUnlock()
	prev := ""
	for _, e := range m.repo.Entries() {
		if e.Name != prev {
			ls.RepoModels++
			prev = e.Name
		}
		ls.RepoVersions++
		ls.RepoBytes += e.Bytes
	}
	ls.Cold = max(ls.RepoVersions-ls.Warm-ls.Loading, 0)
	return ls
}

// Stats snapshots the wrapped engine and attaches the lifecycle view.
func (m *Manager) Stats() serving.Stats {
	s := m.inner.Stats()
	ls := m.LStats()
	s.Lifecycle = &ls
	return s
}

// ResidentBytes returns the summed marginal footprint of warm versions.
func (m *Manager) ResidentBytes() int64 { return m.resident.Load() }

// Ready forwards readiness to the wrapped engine.
func (m *Manager) Ready() error { return m.inner.Ready() }

// Close stops the poller (if any) and the wrapped engine.
func (m *Manager) Close() error {
	if m.poller != nil {
		m.poller.Stop()
	}
	return m.inner.Close()
}
