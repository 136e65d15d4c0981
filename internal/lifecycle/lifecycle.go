// Package lifecycle is the model storage tier: an Engine middleware
// that keeps the full model catalog on disk (internal/repo) and only a
// RAM-budgeted working set resident in the runtime. Models are
// admitted under a configurable budget using the runtime's dedup-aware
// footprint accounting, evicted back to disk LRU-first (pinned models
// exempt), and cold-loaded lazily on the first predict that misses —
// single-flight, so a thundering herd on a cold model pays for exactly
// one load. Cold-start latency is tracked in its own histogram: the
// PRETZEL paper's observation that most models are cold most of the
// time makes the disk→RAM path a first-class serving metric, not an
// operational footnote.
//
// The manager wraps a *serving.Local rather than any serving.Engine: it
// compiles cold models into the local runtime's stores and charges each
// one the runtime MemBytes delta its load produced, which only an
// in-process runtime can answer. It implements serving.Engine itself
// (and Unwrap, so serving.As sees through it), so the chaos injector
// and the HTTP front end stack on top unchanged.
package lifecycle

import (
	"context"
	"errors"
	"fmt"
	"sort"
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
	// RAMBudget caps the summed marginal footprint of warm models in
	// bytes (0 = unlimited: everything loads and nothing evicts). A
	// single model larger than the whole budget still loads — requests
	// are never failed for budget reasons — and pinned models are
	// exempt, so either can push residency above the cap.
	RAMBudget int64
	// LazyLoad skips the startup preload: every model starts cold and
	// is loaded by its first predict. The default (false) preloads
	// repository models at construction until the budget is reached.
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

// managed is one model's lifecycle record. The bare name is the unit
// of residency: loading brings all published versions of the name in,
// evicting removes them all (per-version unregistration is an explicit
// management action, not a budget decision).
type managed struct {
	name  string
	state string
	// pinned exempts the model from budget eviction.
	pinned bool
	// bytes is the measured marginal footprint while warm (runtime
	// MemBytes delta at load); est the import-time upper bound used
	// for admission while the model is still cold.
	bytes int64
	est   int64
	// versions (ascending) and labels (as persisted) mirror the on-disk
	// repository view, so Resolve and Models answer for cold models
	// without touching disk.
	versions []int
	labels   map[string]int
	// lastAccess is the LRU clock (monotonic counter, not wall time:
	// Predict only does an atomic add on the hot path).
	lastAccess atomic.Int64
	// inflight counts predicts dispatched against this model. It is
	// incremented under mu (read lock suffices) and checked by the
	// evictor under the write lock, so a model with live requests is
	// never chosen as an eviction victim: the warm-check→dispatch
	// window cannot race an eviction.
	inflight atomic.Int64
	// badErr/badUntil negative-cache a failed load: until badUntil,
	// cold predicts fail fast with badErr instead of redoing the full
	// multi-version disk read + compile on every request against a
	// persistently corrupt model. Cleared on a successful load and
	// when a new version is published.
	badErr   error
	badUntil time.Time
}

// loadFailCooldown is how long a fully failed load is negative-cached
// before a predict retries it from disk.
const loadFailCooldown = 2 * time.Second

// Manager is the lifecycle middleware. See the package comment.
type Manager struct {
	inner *serving.Local
	rt    *runtime.Runtime
	repo  *repo.Repo
	cfg   Config
	comp  oven.Options

	// mu guards entries and every managed's mutable fields. The
	// predict fast path takes only the read lock.
	mu      sync.RWMutex
	entries map[string]*managed

	// loadMu serializes every slow-path mutation (load, evict,
	// register, unregister): runtime footprint deltas are only exact
	// when one mutation runs at a time, and holding it across a load
	// is what makes cold loads single-flight. Lock order is strictly
	// loadMu → mu; mu is never held across a runtime call that drains.
	loadMu sync.Mutex

	clock     atomic.Int64 // LRU tick source
	resident  atomic.Int64 // summed warm marginal footprint
	coldLoads atomic.Uint64
	evictions atomic.Uint64
	loadErrs  atomic.Uint64
	coldStart metrics.Histogram

	poller *repo.Poller
}

// New builds a Manager over a local engine and an opened repository,
// scans the repository into the managed set, and (unless cfg.LazyLoad)
// preloads models in name order until the budget is reached.
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
		entries: make(map[string]*managed),
	}
	entries, err := r.Scan()
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		m.noteVersion(e.Name, e.Version, e.Bytes)
	}
	for name, e := range m.entries {
		// Persisted labels must resolve before the first load too; a
		// failed read leaves none, as it does during a load.
		e.labels, _ = r.Labels(name)
	}
	if !cfg.LazyLoad {
		m.loadMu.Lock()
		for _, e := range m.sortedEntries() {
			// Preload never evicts: fill until the budget is hit and
			// leave the tail cold for lazy loading.
			if err := m.warmLocked(e, false); err != nil && !errors.Is(err, errBudget) {
				m.loadMu.Unlock()
				return nil, fmt.Errorf("lifecycle: preloading %q: %w", e.name, err)
			}
		}
		m.loadMu.Unlock()
	}
	if cfg.PollInterval > 0 {
		m.poller = r.Poll(cfg.PollInterval, m.onDiscovered)
	}
	return m, nil
}

// noteVersion records a disk version on the managed set, creating a
// cold entry for a new name. bytes is the version's on-disk size; it
// seeds the cold footprint estimate until a real load measures one.
// Caller must NOT hold mu.
func (m *Manager) noteVersion(name string, version int, bytes int64) *managed {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.entries[name]
	if e == nil {
		e = &managed{name: name, state: StateCold}
		m.entries[name] = e
	}
	if e.published(version) {
		return e
	}
	e.versions = append(e.versions, version)
	sort.Ints(e.versions)
	e.est += bytes
	// A fresh version gives a bad model a new chance immediately.
	e.badErr = nil
	e.badUntil = time.Time{}
	return e
}

func (m *Manager) sortedEntries() []*managed {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*managed, 0, len(m.entries))
	for _, e := range m.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (m *Manager) lookup(name string) *managed {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.entries[name]
}

func (m *Manager) setState(e *managed, s string) {
	m.mu.Lock()
	e.state = s
	m.mu.Unlock()
}

func (m *Manager) touch(e *managed) { e.lastAccess.Store(m.clock.Add(1)) }

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

// errBudget reports a preload skipped because the model does not fit
// without evicting (never surfaced to callers).
var errBudget = errors.New("lifecycle: over budget")

// warmLocked is the one cold→warm path: it makes e resident by loading
// every published version into the runtime. A warm entry is a no-op,
// and while a failed load cools down the cached error is returned
// instead of redoing the disk read + compile. Caller holds loadMu — the
// single-flight gate, which also excludes eviction. When allowEvict is
// set, LRU victims are evicted until the estimate fits (a model larger
// than the whole budget still loads — availability beats the cap); when
// clear, a model that does not fit is skipped with errBudget.
func (m *Manager) warmLocked(e *managed, allowEvict bool) error {
	m.mu.RLock()
	warm := e.state == StateWarm
	badErr, badUntil := e.badErr, e.badUntil
	m.mu.RUnlock()
	if warm {
		return nil
	}
	if badErr != nil && time.Now().Before(badUntil) {
		return badErr
	}
	start := time.Now()
	m.setState(e, StateLoading)
	// doLoad owns loadErrs accounting (it counts per failed version).
	err := m.doLoad(e, allowEvict)
	if err != nil {
		m.mu.Lock()
		e.state = StateCold
		if !errors.Is(err, errBudget) {
			e.badErr = err
			e.badUntil = time.Now().Add(loadFailCooldown)
		}
		m.mu.Unlock()
		return err
	}
	m.mu.Lock()
	e.state = StateWarm
	e.badErr = nil
	e.badUntil = time.Time{}
	m.mu.Unlock()
	m.touch(e)
	m.coldLoads.Add(1)
	m.coldStart.Record(time.Since(start))
	return nil
}

func (m *Manager) doLoad(e *managed, allowEvict bool) error {
	vs, err := m.repo.Versions(e.name)
	if err != nil {
		m.loadErrs.Add(1)
		return err
	}
	if len(vs) == 0 {
		m.loadErrs.Add(1)
		return fmt.Errorf("%w: %q has no published versions", runtime.ErrModelNotFound, e.name)
	}
	type imported struct {
		version int
		pipe    *pipeline.Pipeline
	}
	// A single corrupt version on disk (e.g. a half-trained model
	// rsync'd by an offline trainer) must not make the whole name
	// unservable: individually bad versions are skipped and counted as
	// load errors, and only an entirely-bad model fails the load.
	imps := make([]imported, 0, len(vs))
	var est int64
	var badErr error
	for _, v := range vs {
		raw, err := m.repo.Read(v.Name, v.Version)
		if err == nil {
			var p *pipeline.Pipeline
			if p, err = pipeline.ImportIndexed(raw, m.rt.ObjectStore()); err == nil {
				imps = append(imps, imported{v.Version, p})
				est += estimateBytes(p)
				continue
			}
		}
		// Double-wrap: callers branch on serving.ErrBadModel, and the
		// cause (e.g. repo.ErrCorruptModel) must stay errors.Is-able
		// through the negative cache.
		badErr = fmt.Errorf("%w: %s@%d: %w", serving.ErrBadModel, v.Name, v.Version, err)
		m.loadErrs.Add(1)
	}
	if len(imps) == 0 {
		return badErr
	}
	// Room is made for the whole model up front, so a preload that
	// does not fit is skipped before any version is installed.
	if !m.makeRoom(est, e, allowEvict) {
		return errBudget
	}
	done := 0
	for _, im := range imps {
		if err := m.install(e, im.version, im.pipe); err != nil {
			badErr = fmt.Errorf("%w: %s@%d: %w", serving.ErrBadModel, e.name, im.version, err)
			m.loadErrs.Add(1)
			continue
		}
		done++
	}
	if done == 0 {
		return badErr
	}
	labels, err := m.repo.Labels(e.name)
	if err != nil {
		labels = nil
	}
	for label, v := range labels {
		// A persisted label can point at a since-deleted version;
		// serving the model beats refusing the load.
		_ = m.inner.SetLabel(e.name, label, v)
	}

	m.mu.Lock()
	e.est = est
	e.versions = e.versions[:0]
	for _, v := range vs {
		e.versions = append(e.versions, v.Version)
	}
	e.labels = labels
	m.mu.Unlock()
	return nil
}

// install is the one compile→register path: it makes room for one
// imported version, compiles it against the runtime's stores, registers
// it (giving the plan's shared references back if that fails) and
// charges e the residency it added. Caller holds loadMu, which is what
// makes the MemBytes delta exact.
func (m *Manager) install(e *managed, version int, p *pipeline.Pipeline) error {
	m.makeRoom(estimateBytes(p), e, true)
	before := m.rt.MemBytes()
	pl, err := oven.Compile(p, m.rt.ObjectStore(), m.comp)
	if err != nil {
		return fmt.Errorf("%w: compiling: %v", serving.ErrBadModel, err)
	}
	if _, err := m.rt.RegisterVersion(pl, e.name, version); err != nil {
		oven.ReleasePlan(m.rt.ObjectStore(), m.comp.Plans, pl)
		return err
	}
	delta := int64(m.rt.MemBytes() - before)
	m.mu.Lock()
	e.bytes += delta
	m.mu.Unlock()
	m.resident.Add(delta)
	return nil
}

// makeRoom evicts LRU victims until need bytes fit under the budget.
// Caller holds loadMu. Returns whether need now fits (always true when
// allowEvict and the budget is simply too small: the caller loads
// anyway rather than failing requests).
func (m *Manager) makeRoom(need int64, exclude *managed, allowEvict bool) bool {
	if m.cfg.RAMBudget <= 0 {
		return true
	}
	for m.resident.Load()+need > m.cfg.RAMBudget {
		if !allowEvict {
			return false
		}
		if !m.evictOne(exclude) {
			// Nothing evictable left; load anyway.
			return true
		}
	}
	return true
}

// evictOne evicts the least-recently-used warm, unpinned model (never
// exclude). Caller holds loadMu. The entry is marked evicting under mu
// but mu is RELEASED across the runtime drain, so in-flight predicts
// on the victim finish normally.
func (m *Manager) evictOne(exclude *managed) bool {
	m.mu.Lock()
	var victim *managed
	for _, e := range m.entries {
		if e.state != StateWarm || e.pinned || e == exclude || e.inflight.Load() != 0 {
			continue
		}
		if victim == nil || e.lastAccess.Load() < victim.lastAccess.Load() {
			victim = e
		}
	}
	if victim == nil {
		m.mu.Unlock()
		return false
	}
	victim.state = StateEvicting
	m.mu.Unlock()

	if err := m.unregisterLocked(victim, victim.name); err != nil {
		m.setState(victim, StateWarm)
		return false
	}
	m.evictions.Add(1)
	return true
}

// releaseLease returns a predict's in-flight lease and re-asserts the
// budget: a burst of concurrent requests can hold more than a budget's
// worth of models in RAM at once (in-flight models are never evicted —
// availability wins over the cap), and with no further cold load there
// would be nothing to shrink residency back. The overshoot check is one
// atomic load; the trim itself runs only when over budget and only in
// whichever request happens to win the TryLock — a held loadMu means a
// load or evict is already running and will enforce the budget itself.
func (m *Manager) releaseLease(e *managed) {
	e.inflight.Add(-1)
	if m.cfg.RAMBudget <= 0 || m.resident.Load() <= m.cfg.RAMBudget {
		return
	}
	if !m.loadMu.TryLock() {
		return
	}
	defer m.loadMu.Unlock()
	for m.resident.Load() > m.cfg.RAMBudget {
		// The just-served model is excluded: it is the MRU, and evicting
		// it here would make an over-budget model thrash on every single
		// request. If it alone overshoots, the overshoot stands — the
		// same availability-over-cap rule makeRoom applies.
		if !m.evictOne(e) {
			return // everything left is pinned, busy or e itself
		}
	}
}

// ensureWarm makes sure name is resident, loading it if cold, and
// takes an in-flight lease on the entry (caller MUST give it back with
// releaseLease after dispatch). A (nil, nil) return means the
// name is not repository-managed — the inner engine may still know it,
// e.g. models registered directly on the runtime.
func (m *Manager) ensureWarm(name string) (*managed, error) {
	e := m.lookup(name)
	if e == nil {
		return nil, nil
	}
	// Fast path: the warm check and the lease are taken under the same
	// read-lock section the evictor's victim scan excludes, so a model
	// observed warm here cannot be evicted before the lease lands.
	m.mu.RLock()
	if e.state == StateWarm {
		e.inflight.Add(1)
		m.mu.RUnlock()
		m.touch(e)
		return e, nil
	}
	m.mu.RUnlock()
	// Slow path. loadMu is the single-flight gate: a herd of cold
	// predicts queues here, the first loads, the rest observe warm.
	// Holding it also excludes eviction, so the lease is race-free.
	m.loadMu.Lock()
	defer m.loadMu.Unlock()
	if err := m.warmLocked(e, true); err != nil {
		return nil, err
	}
	e.inflight.Add(1)
	m.touch(e)
	return e, nil
}

// serve runs one dispatch to the inner engine under an in-flight lease
// on the model, cold-loading it on a miss, and retries when the model
// vanished between the warm check and the dispatch (evict race).
func serve[T any](ctx context.Context, m *Manager, model string, dispatch func() (T, error)) (T, error) {
	name, _ := runtime.SplitRef(model)
	for attempt := 0; ; attempt++ {
		e, err := m.ensureWarm(name)
		if err != nil {
			var none T
			return none, err
		}
		out, err := dispatch()
		if e != nil {
			m.releaseLease(e)
		}
		if errors.Is(err, runtime.ErrModelNotFound) && attempt < 8 && ctx.Err() == nil && m.lookup(name) != nil {
			continue
		}
		return out, err
	}
}

// Predict serves one input, cold-loading the model on a miss.
func (m *Manager) Predict(ctx context.Context, model, input string, opts serving.PredictOptions) ([]float32, error) {
	return serve(ctx, m, model, func() ([]float32, error) { return m.inner.Predict(ctx, model, input, opts) })
}

// PredictBatch serves a batch, cold-loading the model on a miss.
func (m *Manager) PredictBatch(ctx context.Context, model string, inputs []string, opts serving.PredictOptions) ([][]float32, error) {
	return serve(ctx, m, model, func() ([][]float32, error) { return m.inner.PredictBatch(ctx, model, inputs, opts) })
}

// Resolve resolves a reference WITHOUT loading: a model that is not
// resident answers from its disk view (the front end resolves every
// cached request, so this must stay cheap and side-effect free).
func (m *Manager) Resolve(ref string) (string, int, error) {
	name, version, err := m.inner.Resolve(ref)
	if err == nil || !errors.Is(err, runtime.ErrModelNotFound) {
		return name, version, err
	}
	bare, part := runtime.SplitRef(ref)
	e := m.lookup(bare)
	if e == nil {
		return "", 0, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	if e.state == StateWarm {
		return "", 0, err // the runtime's answer stands for a resident model
	}
	v, cerr := e.resolve(part)
	if cerr != nil {
		return "", 0, cerr
	}
	return bare, v, nil
}

// loadLabels is the label map a load of e would produce: the persisted
// labels, plus "stable" on the lowest version when none is persisted (a
// load installs versions lowest-first into an empty runtime, which
// hands "stable" to the first). Caller holds mu (read suffices).
func (e *managed) loadLabels() map[string]int {
	view := make(map[string]int, len(e.labels)+1)
	if len(e.versions) > 0 {
		view[runtime.LabelStable] = e.versions[0]
	}
	for l, v := range e.labels {
		view[l] = v
	}
	return view
}

// resolve picks the published version a ref part selects on e's disk
// view — the version a request would hit once e is loaded. Caller holds
// mu (read suffices).
func (e *managed) resolve(part string) (int, error) {
	onDisk := make(map[int]struct{}, len(e.versions))
	for _, v := range e.versions {
		onDisk[v] = struct{}{}
	}
	return runtime.ResolveVersion(e.name, part, e.loadLabels(), onDisk)
}

// published reports whether version v is on disk. Caller holds mu
// (read suffices).
func (e *managed) published(v int) bool {
	i := sort.SearchInts(e.versions, v)
	return i < len(e.versions) && e.versions[i] == v
}

// annotate stamps the lifecycle fields onto a warm model's info.
func (m *Manager) annotate(mi *runtime.ModelInfo) {
	e := m.entries[mi.Name]
	if e == nil {
		return
	}
	mi.State = e.state
	mi.MemBytes = int(e.bytes)
	mi.Pinned = e.pinned
}

// coldInfo synthesizes the white-box view of a model that is on disk
// but not resident. Caller holds mu (read suffices).
func coldInfo(e *managed) runtime.ModelInfo {
	mi := runtime.ModelInfo{
		Name:     e.name,
		Labels:   e.loadLabels(),
		State:    e.state,
		MemBytes: int(e.est),
		Pinned:   e.pinned,
	}
	for _, v := range e.versions {
		mi.Versions = append(mi.Versions, runtime.VersionInfo{Version: v})
	}
	return mi
}

// Models lists every model — resident ones with runtime detail plus
// lifecycle state, cold ones synthesized from the disk view — sorted
// by name.
func (m *Manager) Models() []runtime.ModelInfo {
	infos := m.inner.Models()
	m.mu.RLock()
	defer m.mu.RUnlock()
	seen := make(map[string]bool, len(infos))
	for i := range infos {
		m.annotate(&infos[i])
		seen[infos[i].Name] = true
	}
	for _, e := range m.entries {
		if !seen[e.name] && e.state != StateWarm {
			infos = append(infos, coldInfo(e))
		}
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// ModelInfo returns one model's white-box view by bare name, whether
// resident or cold.
func (m *Manager) ModelInfo(name string) (runtime.ModelInfo, error) {
	mi, err := m.inner.ModelInfo(name)
	if err == nil {
		m.mu.RLock()
		m.annotate(&mi)
		m.mu.RUnlock()
		return mi, nil
	}
	if !errors.Is(err, runtime.ErrModelNotFound) {
		return runtime.ModelInfo{}, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	if e := m.entries[name]; e != nil {
		return coldInfo(e), nil
	}
	return runtime.ModelInfo{}, err
}

// Register validates an upload, persists it to the repository FIRST
// (durability: a crash after Put recovers the model on restart), then
// makes it resident — the whole model when it was cold, just the new
// version when already warm.
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
	e := m.noteVersion(name, ent.Version, ent.Bytes)

	// A resident model gets just the new version installed next to the
	// others; a cold one is loaded whole. Either way the bytes e gained
	// are what this upload cost the node.
	m.mu.RLock()
	warm, before := e.state == StateWarm, e.bytes
	m.mu.RUnlock()
	if warm {
		err = m.install(e, ent.Version, p)
	} else {
		err = m.warmLocked(e, true)
	}
	if err != nil {
		return serving.RegisterResult{}, err
	}
	m.mu.RLock()
	newBytes := e.bytes - before
	m.mu.RUnlock()
	m.touch(e)

	if opts.Label != "" {
		if err := m.setLabelLocked(e, opts.Label, ent.Version); err != nil {
			return serving.RegisterResult{}, err
		}
	}
	res := serving.RegisterResult{Name: name, Version: ent.Version}
	if newBytes > 0 {
		res.NewBytes = int(newBytes)
	}
	if mi, err := m.inner.ModelInfo(name); err == nil {
		for _, v := range mi.Versions {
			if v.Version == ent.Version {
				res.ID = v.ID
			}
		}
		res.SharedBytes = mi.SharedBytes
	}
	if total := res.NewBytes + res.SharedBytes; total > 0 {
		res.DedupRatio = float64(res.SharedBytes) / float64(total)
	}
	return res, nil
}

// setLabelLocked applies a label to the runtime (when warm) and
// persists it to the repository. Caller holds loadMu.
func (m *Manager) setLabelLocked(e *managed, label string, version int) error {
	m.mu.RLock()
	warm := e.state == StateWarm
	m.mu.RUnlock()
	if warm {
		if err := m.inner.SetLabel(e.name, label, version); err != nil {
			return err
		}
	} else {
		m.mu.RLock()
		found := e.published(version)
		m.mu.RUnlock()
		if !found {
			return fmt.Errorf("%w: %s@%d", runtime.ErrModelNotFound, e.name, version)
		}
	}
	labels, err := m.repo.Labels(e.name)
	if err != nil {
		return err
	}
	if labels == nil {
		labels = make(map[string]int)
	}
	labels[label] = version
	if err := m.repo.PutLabels(e.name, labels); err != nil {
		return err
	}
	m.mu.Lock()
	e.labels = labels
	m.mu.Unlock()
	return nil
}

// SetLabel points a label at a version, persisting through the
// repository; a cold model's label is applied on its next load.
func (m *Manager) SetLabel(name, label string, version int) error {
	m.loadMu.Lock()
	defer m.loadMu.Unlock()
	e := m.lookup(name)
	if e == nil {
		// Not repository-managed: fall through to the inner engine.
		return m.inner.SetLabel(name, label, version)
	}
	return m.setLabelLocked(e, label, version)
}

// Unregister removes a reference from the runtime AND the repository:
// a bare name deletes the whole model, name@version one version (with
// any labels pointing at it).
func (m *Manager) Unregister(ref string) error {
	m.loadMu.Lock()
	defer m.loadMu.Unlock()

	name, part := runtime.SplitRef(ref)
	e := m.lookup(name)
	if e == nil {
		return m.inner.Unregister(ref)
	}
	m.mu.RLock()
	warm := e.state == StateWarm
	m.mu.RUnlock()

	if part == "" {
		if warm {
			if err := m.unregisterLocked(e, name); err != nil {
				return err
			}
		}
		if err := m.repo.Delete(name, 0); err != nil {
			return err
		}
		m.mu.Lock()
		delete(m.entries, name)
		m.mu.Unlock()
		return nil
	}

	// A resident model's labels live in the runtime; an explicit
	// version is looked up on disk either way, because a version skipped
	// as corrupt at load time is published but not installed.
	var version int
	var err error
	if _, explicit := runtime.ParseVersion(part); warm && !explicit {
		_, version, err = m.inner.Resolve(ref)
	} else {
		m.mu.RLock()
		version, err = e.resolve(part)
		m.mu.RUnlock()
	}
	if err != nil {
		return err
	}

	if warm {
		// The corrupt-at-load version again: its absence from the
		// runtime must not block deleting it from disk.
		err := m.unregisterLocked(e, fmt.Sprintf("%s@%d", name, version))
		if err != nil && !errors.Is(err, runtime.ErrModelNotFound) {
			return err
		}
	}
	if err := m.repo.Delete(name, version); err != nil {
		return err
	}
	// Drop the version (and labels pointing at it) from the disk view.
	labels, _ := m.repo.Labels(name)
	changed := false
	for l, v := range labels {
		if v == version {
			delete(labels, l)
			changed = true
		}
	}
	if changed {
		_ = m.repo.PutLabels(name, labels)
	}
	m.mu.Lock()
	kept := e.versions[:0]
	for _, v := range e.versions {
		if v != version {
			kept = append(kept, v)
		}
	}
	e.versions = kept
	e.labels = labels
	empty := len(e.versions) == 0
	if empty {
		delete(m.entries, name)
	}
	m.mu.Unlock()
	return nil
}

// unregisterLocked is the one removal path — eviction and unregister
// alike: it drops ref (a version of e, or all of e) from the runtime
// and credits back the bytes ACTUALLY freed, not the marginal delta
// charged at load time: once the first loader of shared parameters
// leaves, the shared bytes stay resident (other warm models still hold
// them) and crediting the load-time charge would make the counter
// under-report real RAM. Caller holds loadMu, which makes the MemBytes
// delta exact.
func (m *Manager) unregisterLocked(e *managed, ref string) error {
	before := m.rt.MemBytes()
	if err := m.rt.Unregister(ref); err != nil {
		return err
	}
	freed := int64(before - m.rt.MemBytes())
	m.mu.Lock()
	e.bytes = max(e.bytes-freed, 0)
	if _, err := m.rt.ModelInfo(e.name); err != nil { // its last version left
		e.state = StateCold
		e.bytes = 0
	}
	m.mu.Unlock()
	m.resident.Add(-freed)
	return nil
}

// Warm makes a repository-managed model resident without serving a
// request: the pre-warm primitive behind POST /models/{name}/warm. It
// is a predict's cold→warm step with nothing dispatched: a warm model
// is a cheap no-op (plus an LRU touch, so a freshly pre-warmed model is
// not the next eviction victim), a cold one takes the same
// single-flight, negative-cached load.
func (m *Manager) Warm(name string) error {
	e, err := m.ensureWarm(name)
	if err != nil {
		return err
	}
	if e == nil {
		return fmt.Errorf("%w: %q is not repository-managed", runtime.ErrModelNotFound, name)
	}
	m.releaseLease(e)
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

// Pin marks a model exempt from (pinned=true) or subject to
// (pinned=false) budget eviction; pinning a cold model loads it.
func (m *Manager) Pin(name string, pinned bool) error {
	m.loadMu.Lock()
	defer m.loadMu.Unlock()
	e := m.lookup(name)
	if e == nil {
		return fmt.Errorf("%w: %q is not repository-managed", runtime.ErrModelNotFound, name)
	}
	if pinned {
		if err := m.warmLocked(e, true); err != nil {
			return err
		}
	}
	m.mu.Lock()
	e.pinned = pinned
	m.mu.Unlock()
	return nil
}

// onDiscovered is the poll callback: versions published behind the
// server's back become cold entries (or, for already-warm models, are
// registered eagerly so traffic picks them up).
func (m *Manager) onDiscovered(added []repo.Entry) {
	for _, ent := range added {
		e := m.noteVersion(ent.Name, ent.Version, ent.Bytes)
		// Hot model, new version: bring the catalog up to date now
		// rather than waiting for an eviction cycle. Warmth is checked
		// under loadMu, which excludes eviction: registering a version
		// on a model that just went cold would strand a runtime entry
		// that makes every later cold load fail with "already
		// registered".
		m.loadMu.Lock()
		m.mu.RLock()
		warm := e.state == StateWarm
		m.mu.RUnlock()
		if !warm {
			m.loadMu.Unlock()
			continue // already noted; the next cold load picks it up
		}
		raw, err := m.repo.Read(ent.Name, ent.Version)
		var p *pipeline.Pipeline
		if err == nil {
			p, err = pipeline.ImportIndexed(raw, m.rt.ObjectStore())
		}
		if err == nil {
			err = m.install(e, ent.Version, p)
		}
		if err != nil {
			m.loadErrs.Add(1)
		}
		m.loadMu.Unlock()
	}
}

// Unwrap returns the wrapped local engine, so serving.As reaches the
// capabilities the manager does not intercept (kernel fault hook,
// quarantine report).
func (m *Manager) Unwrap() serving.Engine { return m.inner }

// LStats snapshots the lifecycle tier's white-box counters.
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
	for _, e := range m.entries {
		switch e.state {
		case StateWarm, StateEvicting:
			ls.Warm++
		case StateCold:
			ls.Cold++
		case StateLoading:
			ls.Loading++
		}
		if e.pinned {
			ls.Pinned++
		}
	}
	m.mu.RUnlock()
	if entries, err := m.repo.Scan(); err == nil {
		names := make(map[string]bool)
		for _, ent := range entries {
			names[ent.Name] = true
			ls.RepoVersions++
			ls.RepoBytes += ent.Bytes
		}
		ls.RepoModels = len(names)
	}
	return ls
}

// Stats snapshots the wrapped engine and attaches the lifecycle view.
func (m *Manager) Stats() serving.Stats {
	s := m.inner.Stats()
	ls := m.LStats()
	s.Lifecycle = &ls
	return s
}

// ResidentBytes returns the summed marginal footprint of warm models.
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
