// Package runtime implements the PRETZEL Runtime (§4.2.1): the system
// catalog of registered model plans, the pooled execution resources and
// the two serving engines —
//
//   - the request-response engine, which inlines a whole plan's execution
//     into the calling goroutine (lowest latency, no scheduling overhead);
//   - the batch engine, which forwards stage events to the Scheduler so
//     many plans can share executors at high utilization.
//
// Models are versioned: Register installs "name@version", labels
// ("stable", "canary", …) alias a version, and references anywhere in
// the serving API accept "name", "name@version" or "name@label". Label
// moves are atomic — in-flight requests finish on the version they
// resolved, new requests see the new version — and Unregister drains
// in-flight work before returning.
//
// Physical stages are shared in one place, the plan store the runtime
// owns (PlanStore): plans compiled through it bind the same *plan.Stage
// for structurally identical stages, so registration only links a plan
// and never touches a stage's kernel.
package runtime

import (
	"fmt"
	goruntime "runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pretzel/internal/metrics"
	"pretzel/internal/ops"
	"pretzel/internal/plan"
	"pretzel/internal/sched"
	"pretzel/internal/store"
	"pretzel/internal/vector"
)

// LabelStable is the label bare-name references resolve through. The
// first registered version of a model receives it automatically.
const LabelStable = "stable"

// Config parameterizes a Runtime.
type Config struct {
	// Executors is the number of batch-engine executors (≈ cores).
	Executors int
	// MatCacheBytes enables sub-plan materialization with this budget
	// when > 0 (§4.3).
	MatCacheBytes int

	// MaxInFlight bounds concurrently admitted requests across all
	// models (0 = no limit). When the limit is reached, further
	// best-effort requests are shed at admission with ErrOverloaded
	// instead of queuing without bound.
	MaxInFlight int
	// ReservedHighPriority holds back this many of the MaxInFlight
	// slots for PriorityHigh requests: best-effort traffic is admitted
	// only up to MaxInFlight - ReservedHighPriority, so reserved
	// traffic keeps admission capacity even under a best-effort flood.
	ReservedHighPriority int
	// MaxInFlightPerModel bounds concurrently admitted best-effort
	// requests per model name (0 = no limit), so one hot model cannot
	// starve the rest. PriorityHigh requests bypass the per-model limit
	// (they remain subject to the global MaxInFlight).
	MaxInFlightPerModel int

	// PanicThreshold quarantines a model after this many recovered
	// kernel panics inside PanicWindow (0 = default 3, < 0 disables
	// quarantine; panics are still recovered and counted).
	PanicThreshold int
	// PanicWindow is the sliding window panics are counted over
	// (0 = default 10s).
	PanicWindow time.Duration
	// Quarantine is how long a tripped model sheds requests with
	// ErrModelQuarantined before serving again (0 = default 30s).
	Quarantine time.Duration
}

// Registered is one installed version of a model.
type Registered struct {
	ID      uint64
	Name    string // bare model name
	Version int
	Plan    *plan.Plan

	// inflight tracks requests resolved to this version; Unregister
	// waits for it to drain after unlinking the version.
	inflight sync.WaitGroup

	// stats points at the per-name overload-plane state shared by every
	// version of the model, so admission and latency recording work off
	// the already-resolved registration without another map lookup.
	stats *modelStats
}

// release ends one in-flight request against this version.
func (r *Registered) release() { r.inflight.Done() }

// modelStats is the per-model overload-plane state shared by all
// versions of one name: the lock-free hot-path latency histogram and
// the admission counters. Everything here is atomic — it sits on the
// zero-alloc warm Predict path.
type modelStats struct {
	lat      metrics.Histogram
	inflight atomic.Int64
	shed     atomic.Uint64

	// Fault-containment state (off the success path: only touched when
	// a kernel panics or a snapshot is taken). quarantinedUntil is the
	// quarantine lapse in Unix nanoseconds (0 / past = serving);
	// recentPanics is the panicMu-guarded sliding window.
	panics           atomic.Uint64
	quarantines      atomic.Uint64
	quarantinedUntil atomic.Int64
	lastPanic        atomic.Value // string: last panic report, truncated
	panicMu          sync.Mutex
	recentPanics     []int64
}

// load snapshots the per-model overload counters.
func (ms *modelStats) load() ModelLoad {
	ml := ModelLoad{
		InFlight:    ms.inflight.Load(),
		Shed:        ms.shed.Load(),
		Latency:     ms.lat.Snapshot(),
		Panics:      ms.panics.Load(),
		Quarantines: ms.quarantines.Load(),
	}
	if until := ms.quarantined(time.Now().UnixNano()); until != 0 {
		ml.Quarantined = true
		ml.QuarantinedUntil = until
	}
	if lp, ok := ms.lastPanic.Load().(string); ok {
		ml.LastPanic = lp
	}
	return ml
}

// model groups the installed versions of one name with its labels.
type model struct {
	versions map[int]*Registered
	labels   map[string]int
	stats    *modelStats
}

// latest returns the highest installed version (0 when empty).
func (m *model) latest() int {
	max := 0
	for v := range m.versions {
		if v > max {
			max = v
		}
	}
	return max
}

// Runtime hosts registered plans and serves predictions.
type Runtime struct {
	cfg       Config
	objStore  *store.ObjectStore
	planStore *plan.StageStore
	matCache  *store.MatCache
	sched     *sched.Scheduler

	mu     sync.RWMutex
	models map[string]*model
	nextID uint64

	// Global admission state: requests currently admitted (both
	// engines) and requests shed at admission with ErrOverloaded.
	inflight atomic.Int64
	shedCnt  atomic.Uint64

	// Fault-containment state: node-wide recovered-panic and
	// quarantine-trip counters, and the installed kernel fault hook
	// (plan.FaultFunc; chaos testing only, nil in production).
	panicCnt atomic.Uint64
	quarCnt  atomic.Uint64
	fault    atomic.Value

	closed atomic.Bool

	// rrPool supplies vectors to the request-response engine: one shard
	// per core, so concurrent Predict callers do not contend on one lock.
	rrPool   *vector.Pool
	execPool sync.Pool
}

// New starts a runtime. objStore may be nil (no parameter sharing).
func New(objStore *store.ObjectStore, cfg Config) *Runtime {
	if cfg.PanicThreshold == 0 {
		cfg.PanicThreshold = 3
	}
	if cfg.PanicWindow <= 0 {
		cfg.PanicWindow = 10 * time.Second
	}
	if cfg.Quarantine <= 0 {
		cfg.Quarantine = 30 * time.Second
	}
	rt := &Runtime{
		cfg:       cfg,
		objStore:  objStore,
		planStore: plan.NewStageStore(),
		models:    make(map[string]*model),
		rrPool:    vector.NewPoolShards(goruntime.GOMAXPROCS(0)),
	}
	if cfg.MatCacheBytes > 0 {
		rt.matCache = store.NewMatCache(cfg.MatCacheBytes)
	}
	rt.execPool.New = func() any {
		// Pooled contexts are long-lived and sticky to a P (sync.Pool),
		// so pinning each to one pool shard gives core affinity.
		return &plan.Exec{Pool: rt.rrPool, Shard: rt.rrPool.ShardHint(), Cache: rt.matCache}
	}
	rt.sched = sched.New(sched.Config{Executors: cfg.Executors})
	return rt
}

// ObjectStore returns the runtime's object store (may be nil).
func (rt *Runtime) ObjectStore() *store.ObjectStore { return rt.objStore }

// PlanStore returns the runtime's plan store: compiled stages interned
// by structural signature. Compilers pass it via oven.Options.Plans so
// structurally identical pipelines share whole physical stages; the
// runtime gives stage references back to it on Unregister.
func (rt *Runtime) PlanStore() *plan.StageStore { return rt.planStore }

// PlanStoreStats returns the plan-store sharing counters.
func (rt *Runtime) PlanStoreStats() plan.StageStoreStats { return rt.planStore.Stats() }

// MatCache returns the materialization cache (nil when disabled).
func (rt *Runtime) MatCache() *store.MatCache { return rt.matCache }

// MatCacheStats returns the materialization-cache hit/miss/size
// counters (zero-valued when the cache is disabled).
func (rt *Runtime) MatCacheStats() store.CacheStats {
	if rt.matCache == nil {
		return store.CacheStats{}
	}
	return rt.matCache.Stats()
}

// ObjectStoreStats returns the Object Store intern counters and
// parameter footprint (zero-valued when no store is attached).
func (rt *Runtime) ObjectStoreStats() store.Stats {
	if rt.objStore == nil {
		return store.Stats{}
	}
	return rt.objStore.Stats()
}

// PoolStats returns the request-response vector pool counters
// (invariants: Gets == Hits + Allocs, Puts <= Gets).
func (rt *Runtime) PoolStats() vector.PoolStats { return rt.rrPool.Stats() }

// BatchPoolStats aggregates the batch-engine executor pool counters.
func (rt *Runtime) BatchPoolStats() vector.PoolStats { return rt.sched.PoolStats() }

// SchedStats returns the batch-engine scheduler's job accounting.
func (rt *Runtime) SchedStats() sched.Stats { return rt.sched.Stats() }

// --- model references ---

// SplitRef splits a model reference "name[@ref]" into the bare name and
// the version-or-label part ("" when absent).
func SplitRef(s string) (name, ref string) {
	if i := strings.LastIndexByte(s, '@'); i >= 0 {
		return s[:i], s[i+1:]
	}
	return s, ""
}

// ParseVersion interprets a ref as an explicit version number ("2" or
// "v2"); ok=false means the ref is a label.
func ParseVersion(ref string) (int, bool) {
	r := strings.TrimPrefix(ref, "v")
	n, err := strconv.Atoi(r)
	if err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

// ResolveVersion is the model-reference rule, stated once for every
// engine: which installed version the part after "name@" selects.
//
//	""          the "stable" label; without one, the only installed version
//	"2", "v2"   version 2
//	other       the label of that name
//
// A bare name never falls back to the latest of several versions: that
// would silently promote an unlabeled canary, and rollout stays opt-in
// (the operator must move a label). Naming a version that is not in
// installed — by number or through a label — is ErrModelNotFound.
func ResolveVersion[V any](name, part string, labels map[string]int, installed map[int]V) (int, error) {
	var v int
	var named bool
	if part == "" {
		v, named = labels[LabelStable]
	} else if v, named = ParseVersion(part); !named {
		v, named = labels[part]
	}
	switch {
	case named:
	case part != "":
		return 0, fmt.Errorf("%w: %q has no version or label %q", ErrModelNotFound, name, part)
	case len(installed) == 1:
		for v = range installed { // the only one: unambiguous
		}
	default:
		return 0, fmt.Errorf("%w: %q has no %q label; reference an explicit version or label", ErrModelNotFound, name, LabelStable)
	}
	if _, ok := installed[v]; !ok {
		return 0, fmt.Errorf("%w: %q has no version %d", ErrModelNotFound, name, v)
	}
	return v, nil
}

// resolveLocked resolves (name, ref) to an installed version. The
// caller holds rt.mu (read or write).
func (rt *Runtime) resolveLocked(name, ref string) (*Registered, error) {
	m, ok := rt.models[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrModelNotFound, name)
	}
	v, err := ResolveVersion(name, ref, m.labels, m.versions)
	if err != nil {
		return nil, err
	}
	return m.versions[v], nil
}

// acquire resolves a model reference and marks one request in flight
// against the resolved version; the caller must release() it. A model
// under quarantine sheds the request here — before any slot or pin is
// taken — with a QuarantinedError carrying the lapse time.
func (rt *Runtime) acquire(ref string) (*Registered, error) {
	name, rest := SplitRef(ref)
	rt.mu.RLock()
	r, err := rt.resolveLocked(name, rest)
	if err == nil {
		// One atomic load on the hot path; the clock is only read once
		// a quarantine has ever been tripped on this model.
		if until := r.stats.quarantinedUntil.Load(); until != 0 && until > time.Now().UnixNano() {
			rt.mu.RUnlock()
			return nil, &QuarantinedError{Model: r.Name, Until: time.Unix(0, until)}
		}
		r.inflight.Add(1)
	}
	rt.mu.RUnlock()
	return r, err
}

// Resolve resolves a model reference without serving traffic: it
// returns the bare name and the concrete version a request would hit.
func (rt *Runtime) Resolve(ref string) (name string, version int, err error) {
	name, rest := SplitRef(ref)
	rt.mu.RLock()
	r, err := rt.resolveLocked(name, rest)
	rt.mu.RUnlock()
	if err != nil {
		return "", 0, err
	}
	return r.Name, r.Version, nil
}

// LookupPlan returns the compiled plan a model reference resolves to.
func (rt *Runtime) LookupPlan(ref string) (*plan.Plan, error) {
	name, rest := SplitRef(ref)
	rt.mu.RLock()
	r, err := rt.resolveLocked(name, rest)
	rt.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	return r.Plan, nil
}

// --- lifecycle ---

// Register installs a compiled plan. The plan name may carry an
// explicit version ("sa@2"); a bare name installs version 1 and refuses
// duplicates (use RegisterVersion or "name@version" to add versions).
// Similar plans share parameters through the Object Store and whole
// physical stages through the plan store, both at compile time.
func (rt *Runtime) Register(p *plan.Plan) (uint64, error) {
	name, ref := SplitRef(p.Name)
	version := 0
	if ref != "" {
		v, ok := ParseVersion(ref)
		if !ok {
			return 0, fmt.Errorf("%w: %q is not a version (labels are assigned with SetLabel)", ErrInvalidInput, p.Name)
		}
		version = v
	}
	r, err := rt.register(p, name, version, ref == "")
	if err != nil {
		return 0, err
	}
	return r.ID, nil
}

// RegisterVersion installs a compiled plan as name@version. version<=0
// picks the next free version. The first version of a model receives
// the "stable" label; later versions serve only via explicit reference
// until a label is moved to them (SetLabel), so rollout is opt-in.
func (rt *Runtime) RegisterVersion(p *plan.Plan, name string, version int) (*Registered, error) {
	return rt.register(p, name, version, false)
}

func (rt *Runtime) register(p *plan.Plan, name string, version int, requireNewModel bool) (*Registered, error) {
	if name == "" {
		return nil, fmt.Errorf("%w: empty model name", ErrInvalidInput)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidInput, err)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	m, exists := rt.models[name]
	if exists && requireNewModel {
		return nil, fmt.Errorf("runtime: model %q already registered (register %s@<version> to add a version)", name, name)
	}
	if !exists {
		m = &model{versions: make(map[int]*Registered), labels: make(map[string]int), stats: &modelStats{}}
	}
	if version <= 0 {
		version = m.latest() + 1
	}
	if _, dup := m.versions[version]; dup {
		return nil, fmt.Errorf("runtime: model %s@%d already registered", name, version)
	}
	rt.nextID++
	r := &Registered{ID: rt.nextID, Name: name, Version: version, Plan: p, stats: m.stats}
	m.versions[version] = r
	if len(m.versions) == 1 {
		m.labels[LabelStable] = version
	}
	rt.models[name] = m
	return r, nil
}

// SetLabel atomically points a label ("stable", "canary", …) at an
// installed version: requests resolving through the label switch to the
// new version, while requests already in flight finish on the version
// they resolved — a zero-downtime hot swap.
func (rt *Runtime) SetLabel(name, label string, version int) error {
	if label == "" {
		return fmt.Errorf("%w: empty label", ErrInvalidInput)
	}
	if _, isNum := ParseVersion(label); isNum {
		return fmt.Errorf("%w: label %q would shadow a version number", ErrInvalidInput, label)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	m, ok := rt.models[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrModelNotFound, name)
	}
	if _, ok := m.versions[version]; !ok {
		return fmt.Errorf("%w: %q has no version %d", ErrModelNotFound, name, version)
	}
	m.labels[label] = version
	return nil
}

// Unregister removes a model reference and drains its in-flight work
// before returning: a bare name removes every version; "name@ref"
// removes one version (and any labels pointing at it). Unknown names
// and versions return ErrModelNotFound. Removal releases everything the
// removed plans held: their interned parameters go back to the Object
// Store and their shared stages to the plan store (each dropped once its
// last sharer leaves) — so unregistering, or evicting a model to disk,
// actually shrinks the resident set.
func (rt *Runtime) Unregister(ref string) error {
	name, rest := SplitRef(ref)
	rt.mu.Lock()
	m, ok := rt.models[name]
	if !ok {
		rt.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrModelNotFound, name)
	}
	var drain []*Registered
	if rest == "" {
		for _, r := range m.versions {
			drain = append(drain, r)
		}
		delete(rt.models, name)
	} else {
		r, err := rt.resolveLocked(name, rest)
		if err != nil {
			rt.mu.Unlock()
			return err
		}
		delete(m.versions, r.Version)
		for l, v := range m.labels {
			if v == r.Version {
				delete(m.labels, l)
			}
		}
		if len(m.versions) == 0 {
			delete(rt.models, name)
		}
		drain = append(drain, r)
	}
	rt.mu.Unlock()
	// New requests can no longer resolve the removed versions; wait for
	// the ones that already did before giving their state back.
	for _, r := range drain {
		r.inflight.Wait()
		if rt.objStore != nil {
			for _, p := range r.Plan.Interned {
				rt.objStore.Release(p)
			}
		}
		for _, s := range r.Plan.Stages {
			rt.planStore.Release(s)
		}
	}
	return nil
}

// Names lists registered model names (bare, without versions), sorted.
func (rt *Runtime) Names() []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]string, 0, len(rt.models))
	for n := range rt.models {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// CatalogStats counts the registered plans. Stage sharing is reported
// by the plan store (PlanStoreStats).
type CatalogStats struct {
	Plans  int // installed versions across all models
	Models int // distinct model names
}

// CatalogStats returns a snapshot of the catalog counts.
func (rt *Runtime) CatalogStats() CatalogStats {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	plans := 0
	for _, m := range rt.models {
		plans += len(m.versions)
	}
	return CatalogStats{Plans: plans, Models: len(rt.models)}
}

// --- white-box model introspection ---

// StageInfo is the white-box view of one plan stage: its physical
// kernel, the fused logical operators, and the execution counters
// gathered by the executors.
type StageInfo struct {
	Index      int      `json:"index"`
	Kernel     string   `json:"kernel"`
	Ops        []string `json:"ops"`
	Execs      uint64   `json:"execs"`
	Records    uint64   `json:"records"`
	Errs       uint64   `json:"errs"`
	CacheHits  uint64   `json:"cache_hits"`
	TotalNanos uint64   `json:"total_ns"`
	AvgNanos   uint64   `json:"avg_ns"`
}

// VersionInfo describes one installed version of a model.
type VersionInfo struct {
	Version int         `json:"version"`
	ID      uint64      `json:"id"`
	Stages  []StageInfo `json:"stages"`
}

// ModelLoad is the per-model overload-plane snapshot: requests
// currently in flight, requests shed at admission, and the hot-path
// latency percentiles from the lock-free histogram.
type ModelLoad struct {
	InFlight int64                     `json:"in_flight"`
	Shed     uint64                    `json:"shed"`
	Latency  metrics.HistogramSnapshot `json:"latency"`

	// Fault containment: recovered kernel panics and quarantine trips
	// for this model, whether a quarantine is active right now (and
	// until when, Unix ns), and the truncated last-panic report.
	Panics           uint64 `json:"panics,omitempty"`
	Quarantines      uint64 `json:"quarantines,omitempty"`
	Quarantined      bool   `json:"quarantined,omitempty"`
	QuarantinedUntil int64  `json:"quarantined_until_ns,omitempty"`
	LastPanic        string `json:"last_panic,omitempty"`
}

// ModelInfo describes one model: its labels, installed versions and
// overload-plane load counters. The lifecycle fields (State, MemBytes,
// Pinned) are filled by the lifecycle manager when one wraps the
// engine — the runtime itself only knows resident models and leaves
// them zero.
type ModelInfo struct {
	Name     string         `json:"name"`
	Labels   map[string]int `json:"labels"`
	Load     ModelLoad      `json:"load"`
	Versions []VersionInfo  `json:"versions"`

	// State is the lifecycle state: "warm", "cold", "loading" or
	// "evicting" ("" when no lifecycle manager is attached).
	State string `json:"state,omitempty"`
	// MemBytes is the model's measured resident footprint while warm
	// (dedup-aware: the marginal bytes this model added on load), or
	// the import-time estimate while cold.
	MemBytes int `json:"mem_bytes,omitempty"`
	// UniqueBytes / SharedBytes split the model's parameter and stage
	// footprint by sharing: unique bytes are referenced by this model
	// alone (they leave with it), shared bytes are also referenced by
	// other resident models (they stay behind on eviction). Zero when
	// the runtime has no Object Store.
	UniqueBytes int `json:"unique_bytes,omitempty"`
	SharedBytes int `json:"shared_bytes,omitempty"`
	// Pinned marks the model exempt from budget eviction.
	Pinned bool `json:"pinned,omitempty"`
}

func stageInfos(p *plan.Plan) []StageInfo {
	out := make([]StageInfo, len(p.Stages))
	for i, s := range p.Stages {
		kind := ""
		if k := s.Kernel(); k != nil {
			kind = k.Kind()
		}
		st := s.Stats()
		out[i] = StageInfo{
			Index:      i,
			Kernel:     kind,
			Ops:        s.OpKinds(),
			Execs:      st.Execs,
			Records:    st.Records,
			Errs:       st.Errs,
			CacheHits:  st.CacheHits,
			TotalNanos: st.TotalNanos,
			AvgNanos:   st.AvgNanos(),
		}
	}
	return out
}

// sharingSplit partitions the model's parameter and stage footprint by
// whether other resident models also reference each object. A canonical
// parameter whose store refcount exceeds this model's own reference
// count is shared; likewise for plan-store stages. Called under
// rt.mu — the store locks nest inside it on every other path too.
func (m *model) sharingSplit(rt *Runtime) (unique, shared int) {
	if rt.objStore == nil {
		return 0, 0
	}
	ownParams := make(map[ops.Param]int)
	for _, r := range m.versions {
		for _, p := range r.Plan.Interned {
			ownParams[p]++
		}
	}
	for p, own := range ownParams {
		if rt.objStore.Refs(p) > own {
			shared += p.MemBytes()
		} else {
			unique += p.MemBytes()
		}
	}
	ownStages := make(map[*plan.Stage]int)
	for _, r := range m.versions {
		for _, s := range r.Plan.Stages {
			if s.Shared() {
				ownStages[s]++
			}
		}
	}
	for s, own := range ownStages {
		if rt.planStore.Refs(s) > own {
			shared += s.MemEstimate()
		} else {
			unique += s.MemEstimate()
		}
	}
	return unique, shared
}

func (m *model) info(name string) ModelInfo {
	mi := ModelInfo{Name: name, Labels: make(map[string]int, len(m.labels)), Load: m.stats.load()}
	for l, v := range m.labels {
		mi.Labels[l] = v
	}
	versions := make([]int, 0, len(m.versions))
	for v := range m.versions {
		versions = append(versions, v)
	}
	sort.Ints(versions)
	for _, v := range versions {
		r := m.versions[v]
		mi.Versions = append(mi.Versions, VersionInfo{
			Version: v,
			ID:      r.ID,
			Stages:  stageInfos(r.Plan),
		})
	}
	return mi
}

// Models returns the white-box view of every registered model, sorted
// by name.
func (rt *Runtime) Models() []ModelInfo {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]ModelInfo, 0, len(rt.models))
	names := make([]string, 0, len(rt.models))
	for n := range rt.models {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rt.models[n]
		mi := m.info(n)
		mi.UniqueBytes, mi.SharedBytes = m.sharingSplit(rt)
		out = append(out, mi)
	}
	return out
}

// ModelInfo returns the white-box view of one model by bare name.
func (rt *Runtime) ModelInfo(name string) (ModelInfo, error) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	m, ok := rt.models[name]
	if !ok {
		return ModelInfo{}, fmt.Errorf("%w: %q", ErrModelNotFound, name)
	}
	mi := m.info(name)
	mi.UniqueBytes, mi.SharedBytes = m.sharingSplit(rt)
	return mi, nil
}

// AdmissionStats is the global admission-control snapshot: requests
// currently admitted across both engines, requests shed with
// ErrOverloaded, and the configured limits.
type AdmissionStats struct {
	InFlight             int64  `json:"in_flight"`
	Shed                 uint64 `json:"shed"`
	MaxInFlight          int    `json:"max_in_flight"`
	ReservedHighPriority int    `json:"reserved_high_priority"`
	MaxInFlightPerModel  int    `json:"max_in_flight_per_model"`
}

// AdmissionStats returns a snapshot of the global admission state.
func (rt *Runtime) AdmissionStats() AdmissionStats {
	return AdmissionStats{
		InFlight:             rt.inflight.Load(),
		Shed:                 rt.shedCnt.Load(),
		MaxInFlight:          rt.cfg.MaxInFlight,
		ReservedHighPriority: rt.cfg.ReservedHighPriority,
		MaxInFlightPerModel:  rt.cfg.MaxInFlightPerModel,
	}
}

// ModelLoads returns the per-model overload counters keyed by bare
// model name (the /statz view of the per-model histograms).
func (rt *Runtime) ModelLoads() map[string]ModelLoad {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make(map[string]ModelLoad, len(rt.models))
	for n, m := range rt.models {
		out[n] = m.stats.load()
	}
	return out
}

// Reserve dedicates cores (and their vector pools) to one plan
// (reservation-based scheduling, §4.2.2).
func (rt *Runtime) Reserve(ref string, cores int) error {
	p, err := rt.LookupPlan(ref)
	if err != nil {
		return err
	}
	return rt.sched.Reserve(p.Name, cores)
}

// MemBytes estimates the runtime memory footprint: unique parameters in
// the Object Store (or per-plan parameters when no store is used), the
// unique shared stages in the plan store, plus plan/stage bookkeeping.
// Lifecycle charges each model the MemBytes delta its load produced, so
// keeping both stores inside this sum is what makes RAM accounting
// automatically dedup-aware at the parameter AND the plan level.
func (rt *Runtime) MemBytes() int {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	total := 0
	if rt.objStore != nil {
		total += rt.objStore.MemBytes() + rt.planStore.MemBytes()
		// Plan skeletons: wiring plus the stages this plan owns alone;
		// shared stages are counted once in the plan store above and
		// parameters once in the Object Store.
		for _, m := range rt.models {
			for _, r := range m.versions {
				total += 256
				for _, s := range r.Plan.Stages {
					if !s.Shared() {
						total += 128
					}
				}
			}
		}
		return total
	}
	// Without an Object Store every plan holds its own parameter copies.
	for _, m := range rt.models {
		for _, r := range m.versions {
			total += 256
			for _, s := range r.Plan.Stages {
				total += 128
				for _, op := range s.Ops {
					for _, p := range op.Params() {
						total += p.MemBytes()
					}
				}
			}
		}
	}
	return total
}

// Closed reports whether Close has been called (liveness/readiness
// probes use it; requests against a closed runtime fail with ErrClosed).
func (rt *Runtime) Closed() bool { return rt.closed.Load() }

// Close stops the batch engine; subsequent requests fail with ErrClosed.
func (rt *Runtime) Close() {
	if !rt.closed.CompareAndSwap(false, true) {
		return
	}
	rt.sched.Close()
}
