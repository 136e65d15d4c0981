// Package serving defines the transport-agnostic serving seam between
// the HTTP front end and whatever actually executes predictions. Every
// dispatch, catalog and lifecycle operation goes through the Engine
// interface, so the same front end (result cache, adaptive batcher,
// management plane) serves equally over a local runtime (Local) or a
// cluster of remote nodes (cluster.Router) — the seam that turns the
// single-machine PRETZEL stack into a horizontally sharded fleet.
//
// A middleware (chaos.Injector, lifecycle.Manager) embeds or holds the
// Engine it wraps, implements Unwrap() Engine, and overrides only the
// methods it intercepts. Capabilities outside the Engine method set
// (pinning, pre-warming, zip export, cluster membership, the kernel
// fault hook) are never forwarded by hand: callers find them with As.
package serving

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pretzel/internal/metrics"
	"pretzel/internal/plan"
	"pretzel/internal/runtime"
	"pretzel/internal/sched"
	"pretzel/internal/store"
	"pretzel/internal/vector"
)

// Sentinel errors of the serving seam, layered on the runtime's typed
// errors (ErrModelNotFound, ErrOverloaded, …) which pass through
// engines unchanged.
var (
	// ErrBadModel reports an upload that could not be imported or
	// compiled into a plan (HTTP 400).
	ErrBadModel = errors.New("serving: bad model upload")
	// ErrNotReady reports an engine that cannot currently serve
	// (readiness probe failure, HTTP 503).
	ErrNotReady = errors.New("serving: engine not ready")
	// ErrUnsupported reports an operation the engine does not implement
	// (e.g. pinning on an engine with no lifecycle manager, HTTP 501).
	ErrUnsupported = errors.New("serving: operation not supported by this engine")
)

// MapCtxErr folds raw context errors into the runtime's typed
// sentinels — shared by every layer that observes a context expire
// outside the runtime (the front end's batching buffer, the cluster
// router's proxy path).
func MapCtxErr(err error) error {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w (%v)", runtime.ErrDeadlineExceeded, err)
	case errors.Is(err, context.Canceled):
		return fmt.Errorf("%w (%v)", runtime.ErrCanceled, err)
	}
	return err
}

// PredictOptions carry the per-request serving knobs through the seam.
type PredictOptions struct {
	// Priority selects the queue class (batch engine / remote node).
	Priority runtime.Priority
	// Deadline, when non-zero, is the absolute request deadline.
	Deadline time.Time
}

// RegisterOptions parameterize a model registration.
type RegisterOptions struct {
	// Name overrides the pipeline's embedded name ("" keeps it).
	Name string
	// Version installs as this version (<= 0 picks the next free one).
	Version int
	// Label, when non-empty, is pointed at the new version afterwards.
	Label string
}

// RegisterResult reports one successful registration, including the
// density view of the upload: how many bytes the model actually added
// to the node versus how many it shares with already-resident models.
type RegisterResult struct {
	Name    string `json:"name"`
	Version int    `json:"version"`
	ID      uint64 `json:"id"`
	// Nodes lists the cluster nodes holding the new version (empty for
	// a local engine).
	Nodes []string `json:"nodes,omitempty"`

	// NewBytes is the marginal footprint this registration added (the
	// runtime MemBytes delta across compile+register: unique parameters
	// and stages no resident model had).
	NewBytes int `json:"new_bytes"`
	// SharedBytes is the rest of the plan's footprint — parameters and
	// compiled stages deduplicated against already-resident models.
	SharedBytes int `json:"shared_bytes"`
	// DedupRatio is SharedBytes / (NewBytes + SharedBytes): 0 for a
	// first-of-its-kind model, approaching 1 for the 10,000th variant
	// that differs only in its final layer.
	DedupRatio float64 `json:"dedup_ratio"`
}

// Stats is the engine's white-box snapshot. Local engines fill the
// runtime-level fields; routing engines fill Cluster instead.
type Stats struct {
	// Kind identifies the engine ("local", "router").
	Kind string `json:"kind"`

	Catalog     runtime.CatalogStats         `json:"catalog"`
	RRPool      vector.PoolStats             `json:"rr_pool"`
	BatchPool   vector.PoolStats             `json:"batch_pool"`
	Sched       sched.Stats                  `json:"sched"`
	Admission   runtime.AdmissionStats       `json:"admission"`
	Models      map[string]runtime.ModelLoad `json:"models,omitempty"`
	MatCache    store.CacheStats             `json:"mat_cache"`
	ObjectStore store.Stats                  `json:"object_store"`
	// PlanStore is the compiled-stage sharing view: unique stages,
	// total references and hit/miss counters of the plan store.
	PlanStore plan.StageStoreStats `json:"plan_store"`
	// MemBytes is the engine's estimated parameter + plan footprint.
	MemBytes int `json:"mem_bytes"`

	// Faults is the fault-containment snapshot (nil for routing
	// engines: panics are a node property; see each node's own /statz).
	Faults *runtime.FaultStats `json:"faults,omitempty"`

	// Cluster is the routing tier's view (nil for local engines).
	Cluster *ClusterStats `json:"cluster,omitempty"`

	// Lifecycle is the model-storage tier's view (nil unless a
	// lifecycle manager wraps the engine).
	Lifecycle *LifecycleStats `json:"lifecycle,omitempty"`
}

// LifecycleStats is the white-box view of the model storage tier: the
// RAM budget, what is resident against it, and the cold-start price
// paid for everything that is not.
type LifecycleStats struct {
	// ResidentBytes is the measured marginal footprint of all warm
	// versions (dedup-aware: each version's delta at load time).
	ResidentBytes int64 `json:"resident_bytes"`
	// BudgetBytes is the configured RAM budget (0 = unlimited).
	BudgetBytes int64 `json:"budget_bytes"`
	// Lazy reports whether startup preloading was disabled.
	Lazy bool `json:"lazy"`

	// Warm/Loading/Pinned count resident versions by state; Cold
	// counts the published versions that are not resident.
	Warm    int `json:"warm"`
	Cold    int `json:"cold"`
	Loading int `json:"loading"`
	Pinned  int `json:"pinned"`

	// ColdLoads counts disk→RAM loads (startup preloads included),
	// Evictions RAM→disk evictions, LoadErrs failed load attempts.
	ColdLoads uint64 `json:"cold_loads"`
	Evictions uint64 `json:"evictions"`
	LoadErrs  uint64 `json:"load_errs,omitempty"`

	// ColdStart is the latency histogram of cold loads: the extra
	// price the first request after an eviction pays.
	ColdStart metrics.HistogramSnapshot `json:"cold_start"`

	// RepoRoot is the on-disk repository path; RepoModels/RepoVersions
	// and RepoBytes its current disk inventory.
	RepoRoot     string `json:"repo_root,omitempty"`
	RepoModels   int    `json:"repo_models"`
	RepoVersions int    `json:"repo_versions"`
	RepoBytes    int64  `json:"repo_bytes"`
}

// ClusterStats is the white-box view of a routing engine: placement
// configuration, per-node health/breaker state and forwarding counters.
type ClusterStats struct {
	// Replication is the placement factor K: each model lives on K of
	// the N registered nodes.
	Replication int `json:"replication"`
	// VNodes is the consistent-hash ring's virtual-node count per node.
	VNodes int `json:"vnodes"`
	// Forwards counts proxied requests; Failovers counts retries that
	// moved a request to another replica after a node-level failure.
	Forwards  uint64 `json:"forwards"`
	Failovers uint64 `json:"failovers"`
	// Retries counts attempts beyond each request's first (all of them
	// budgeted); Hedges counts backup requests fired after HedgeDelay,
	// and HedgeWins how many of those answered before their primary.
	Retries   uint64 `json:"retries,omitempty"`
	Hedges    uint64 `json:"hedges,omitempty"`
	HedgeWins uint64 `json:"hedge_wins,omitempty"`

	// WarmRouted/ColdRouted split routed predicts by whether warmth-
	// aware placement found a warm replica to steer to (ColdRouted
	// requests landed on a replica the warmth map said was cold — the
	// cold-start storms the rebalancer exists to prevent).
	WarmRouted uint64 `json:"warm_routed,omitempty"`
	ColdRouted uint64 `json:"cold_routed,omitempty"`
	// Rebalances counts ownership recomputations (join/leave/probe-down);
	// Prewarms counts pre-warm loads issued to members during them, and
	// PrewarmErrs how many of those failed (the member warms lazily on
	// first traffic instead).
	Rebalances  uint64 `json:"rebalances,omitempty"`
	Prewarms    uint64 `json:"prewarms,omitempty"`
	PrewarmErrs uint64 `json:"prewarm_errs,omitempty"`

	// ResidentBytes/BudgetBytes/ColdLoads aggregate the members'
	// lifecycle tiers into one cluster-wide residency and cold-start
	// view (zero when members run without a lifecycle manager).
	ResidentBytes int64  `json:"resident_bytes,omitempty"`
	BudgetBytes   int64  `json:"budget_bytes,omitempty"`
	ColdLoads     uint64 `json:"cold_loads,omitempty"`

	Nodes []NodeStats `json:"nodes"`
}

// NodeStats is one cluster member's health and traffic snapshot.
type NodeStats struct {
	ID      string `json:"id"`
	Addr    string `json:"addr"`
	Healthy bool   `json:"healthy"`
	Ready   bool   `json:"ready"`
	// Breaker is the circuit state: "closed", "open" or "half-open".
	Breaker string `json:"breaker"`
	// Forwards/Failures count requests proxied to this node and
	// node-level failures observed on them.
	Forwards uint64 `json:"forwards"`
	Failures uint64 `json:"failures"`
	LastErr  string `json:"last_err,omitempty"`

	// Warmth-map snapshot (zero values when the member exposes no
	// lifecycle state or the warmth poller is disabled).
	WarmModels    int    `json:"warm_models,omitempty"`
	ColdModels    int    `json:"cold_models,omitempty"`
	ResidentBytes int64  `json:"resident_bytes,omitempty"`
	BudgetBytes   int64  `json:"budget_bytes,omitempty"`
	ColdLoads     uint64 `json:"cold_loads,omitempty"`
	// Saturated reports residency at or above the member's budget: the
	// placement scorer deprioritizes cold loads onto saturated members.
	Saturated bool `json:"saturated,omitempty"`
	// Quarantined lists models the member currently refuses (panic
	// quarantine): the scorer steers their traffic to siblings first.
	Quarantined []string `json:"quarantined,omitempty"`
}

// Engine is the serving seam: everything the front end needs from a
// prediction backend, with no commitment to where execution happens.
// All errors surface the runtime's typed sentinels (plus ErrBadModel /
// ErrNotReady above) so callers — in particular the HTTP status
// mapping — never depend on the engine's locality.
type Engine interface {
	// Predict serves one text input and returns the dense prediction.
	Predict(ctx context.Context, model, input string, opts PredictOptions) ([]float32, error)
	// PredictBatch serves a whole batch as one unit of work (the
	// adaptive batcher's flush path).
	PredictBatch(ctx context.Context, model string, inputs []string, opts PredictOptions) ([][]float32, error)

	// Resolve resolves a model reference ("name", "name@version",
	// "name@label") to the concrete version a request would hit.
	Resolve(ref string) (name string, version int, err error)
	// Models lists the white-box view of every registered model.
	Models() []runtime.ModelInfo
	// ModelInfo returns one model's white-box view by bare name.
	ModelInfo(name string) (runtime.ModelInfo, error)

	// Register installs a model from exported zip bytes.
	Register(zip []byte, opts RegisterOptions) (RegisterResult, error)
	// Unregister removes a model reference (draining in-flight work).
	Unregister(ref string) error
	// SetLabel atomically points a label at an installed version.
	SetLabel(name, label string, version int) error

	// Stats snapshots the engine's white-box counters.
	Stats() Stats
	// Ready reports nil when the engine can serve traffic; the error
	// explains why not (readiness probe body).
	Ready() error
	// Close releases the engine's resources.
	Close() error
}

// As finds the first engine in eng's chain that implements T, walking
// Unwrap() Engine from the outermost wrapper inwards the way errors.As
// walks an error chain. It is how optional capabilities are reached
// through any stack of middlewares.
func As[T any](eng Engine) (T, bool) {
	for eng != nil {
		if t, ok := eng.(T); ok {
			return t, true
		}
		u, ok := eng.(interface{ Unwrap() Engine })
		if !ok {
			break
		}
		eng = u.Unwrap()
	}
	var zero T
	return zero, false
}
