// Package pretzel is a white-box machine-learning prediction serving
// system, a Go reproduction of "PRETZEL: Opening the Black Box of
// Machine Learning Prediction Serving Systems" (OSDI 2018).
//
// Trained pipelines are compiled into model plans — DAGs of fused,
// ahead-of-time-compiled stages — whose parameters are deduplicated in a
// shared Object Store and whose physical stages are shared between
// similar plans. An event-based scheduler multiplexes all plans over
// pooled vectors and executors, so hundreds of models serve concurrently
// from one process at low latency and small memory footprint.
//
// The package is a facade over the engine packages:
//
//	store   — Object Store (parameter dedup) + materialization cache
//	flour   — the language-integrated pipeline-authoring API
//	oven    — optimizer (4 rule-based rewrite steps) + plan compiler
//	plan    — compiled model plans, physical stage kernels, plan store
//	runtime — registered plans, executors, request-response/batch engines
//	sched   — event-based two-priority scheduler with reservations
//	frontend— HTTP front end with result caching and delayed batching
//	ml/ops/text — the model and operator substrate
//
// Quickstart:
//
//	objStore := pretzel.NewObjectStore()
//	fc := pretzel.NewFlourContext(objStore)
//	tok := fc.Text().Tokenize()
//	prg := tok.CharNgram(charDict, 2, 3).
//	        Concat(tok.WordNgram(wordDict, 2)).
//	        ClassifierBinaryLinear(model)
//	pln, _ := prg.Plan("my-model", pretzel.DefaultCompileOptions())
//	rt := pretzel.NewRuntime(objStore, pretzel.RuntimeConfig{Executors: 8})
//	rt.Register(pln) // installs my-model@1 with the "stable" label
//
//	// Context-aware request path with typed errors:
//	in, out := pretzel.NewVector(), pretzel.NewVector()
//	in.SetText("this is a nice product")
//	err := rt.PredictRequest(pretzel.Request{
//	        Ctx:      ctx,
//	        Model:    "my-model",            // or "my-model@1", "my-model@stable"
//	        In:       in,
//	        Out:      out,
//	        Deadline: time.Now().Add(5 * time.Millisecond),
//	})
//	switch {
//	case errors.Is(err, pretzel.ErrModelNotFound):    // 404
//	case errors.Is(err, pretzel.ErrDeadlineExceeded): // 504
//	}
//
//	// Versioned lifecycle with atomic hot swap:
//	rt.RegisterVersion(plnV2, "my-model", 2)
//	rt.SetLabel("my-model", "stable", 2) // traffic moves atomically
//	rt.Unregister("my-model@1")          // drains in-flight work, then releases what only v1 held
package pretzel

import (
	"pretzel/internal/chaos"
	"pretzel/internal/cluster"
	"pretzel/internal/flour"
	"pretzel/internal/frontend"
	"pretzel/internal/lifecycle"
	"pretzel/internal/oven"
	"pretzel/internal/pipeline"
	"pretzel/internal/plan"
	"pretzel/internal/repo"
	"pretzel/internal/runtime"
	"pretzel/internal/serving"
	"pretzel/internal/store"
	"pretzel/internal/vector"
)

// Core value and model types.
type (
	// Vector is the data vector exchanged with the engines.
	Vector = vector.Vector
	// Pipeline is a trained (uncompiled) model pipeline.
	Pipeline = pipeline.Pipeline
	// Plan is a compiled model plan.
	Plan = plan.Plan
	// ObjectStore deduplicates parameters across plans.
	ObjectStore = store.ObjectStore
	// FlourContext authors pipelines fluently.
	FlourContext = flour.Context
	// Transform is one node of a Flour program.
	Transform = flour.Transform
	// CompileOptions configure the Oven compiler.
	CompileOptions = oven.Options
	// Runtime hosts registered plans and serves predictions.
	Runtime = runtime.Runtime
	// RuntimeConfig parameterizes the runtime.
	RuntimeConfig = runtime.Config
	// Request is one context-aware prediction request.
	Request = runtime.Request
	// BatchRequest is a whole batch of records served as one job.
	BatchRequest = runtime.BatchRequest
	// Ticket is the handle of an asynchronously submitted request.
	Ticket = runtime.Ticket
	// Priority selects the batch-engine queue class.
	Priority = runtime.Priority
	// Registered is one installed version of a model.
	Registered = runtime.Registered
	// ModelInfo is the white-box view of one registered model.
	ModelInfo = runtime.ModelInfo
	// ModelLoad is the per-model overload-plane snapshot (in-flight,
	// shed, latency percentiles).
	ModelLoad = runtime.ModelLoad
	// AdmissionStats is the global admission-control snapshot.
	AdmissionStats = runtime.AdmissionStats
	// FrontEnd is the HTTP serving layer.
	FrontEnd = frontend.Server
	// FrontEndConfig parameterizes the front end.
	FrontEndConfig = frontend.Config
	// Engine is the transport-agnostic serving seam the front end
	// dispatches through (local runtime or cluster router).
	Engine = serving.Engine
	// LocalEngine is the in-process Engine over one Runtime.
	LocalEngine = serving.Local
	// EngineStats is an engine's white-box snapshot.
	EngineStats = serving.Stats
	// PredictOptions carry per-request serving knobs through the seam.
	PredictOptions = serving.PredictOptions
	// RegisterOptions parameterize a model registration via an Engine.
	RegisterOptions = serving.RegisterOptions
	// ClusterMember identifies one serving node of a cluster.
	ClusterMember = cluster.Member
	// ClusterConfig parameterizes the cluster routing engine.
	ClusterConfig = cluster.Config
	// RouterEngine is the cluster Engine: consistent-hash placement
	// over K of N nodes with failover routing and circuit breaking.
	RouterEngine = cluster.Router
	// FaultStats is the node-wide fault-containment snapshot (kernel
	// panics recovered, quarantines tripped and active).
	FaultStats = runtime.FaultStats
	// QuarantinedError carries a quarantined model's lapse time; it
	// unwraps to ErrModelQuarantined.
	QuarantinedError = runtime.QuarantinedError
	// ChaosInjector is the deterministic fault-injection Engine
	// middleware (latency, typed errors, kernel panics, blackouts).
	ChaosInjector = chaos.Injector
	// ChaosRule is one armed fault of a ChaosInjector.
	ChaosRule = chaos.Rule
	// ModelRepo is the versioned on-disk model repository
	// (<name>/<version>/model.zip with atomic publishes).
	ModelRepo = repo.Repo
	// RepoEntry is one published model version on disk.
	RepoEntry = repo.Entry
	// LifecycleManager is the RAM-budgeted model storage Engine
	// middleware: disk-backed catalog, LRU eviction, lazy single-flight
	// cold loads, pinning.
	LifecycleManager = lifecycle.Manager
	// LifecycleConfig parameterizes a LifecycleManager.
	LifecycleConfig = lifecycle.Config
	// LifecycleStats is the model storage tier's white-box snapshot.
	LifecycleStats = serving.LifecycleStats
)

// Typed sentinel errors of the serving API (match with errors.Is).
var (
	ErrModelNotFound    = runtime.ErrModelNotFound
	ErrDeadlineExceeded = runtime.ErrDeadlineExceeded
	ErrCanceled         = runtime.ErrCanceled
	ErrClosed           = runtime.ErrClosed
	ErrInvalidInput     = runtime.ErrInvalidInput
	// ErrOverloaded reports a request shed at admission because the
	// configured in-flight limits are exhausted (HTTP 429 + Retry-After).
	ErrOverloaded = runtime.ErrOverloaded
	// ErrKernelPanic reports a kernel that panicked during execution;
	// the panic was contained at the stage boundary (HTTP 500).
	ErrKernelPanic = runtime.ErrKernelPanic
	// ErrModelQuarantined reports a model shedding requests after
	// repeated kernel panics (HTTP 503 + Retry-After).
	ErrModelQuarantined = runtime.ErrModelQuarantined
)

// Request priorities and the default label.
const (
	PriorityNormal = runtime.PriorityNormal
	PriorityHigh   = runtime.PriorityHigh
	// LabelStable is the label bare model references resolve through.
	LabelStable = runtime.LabelStable
)

// Effects a ChaosRule can inject.
const (
	ChaosLatency  = chaos.EffectLatency
	ChaosError    = chaos.EffectError
	ChaosPanic    = chaos.EffectPanic
	ChaosBlackout = chaos.EffectBlackout
)

// NewVector returns an empty data vector.
func NewVector() *Vector { return vector.New(0) }

// NewObjectStore returns an empty Object Store.
func NewObjectStore() *ObjectStore { return store.New() }

// NewFlourContext returns a pipeline-authoring context over an Object
// Store (which may be nil for standalone plans).
func NewFlourContext(s *ObjectStore) *FlourContext { return flour.NewContext(s) }

// DefaultCompileOptions returns the standard compiler configuration
// (sub-plan materialization off, no plan store).
func DefaultCompileOptions() CompileOptions { return oven.DefaultOptions() }

// Compile turns a trained pipeline into a model plan, interning its
// parameters into the Object Store.
func Compile(p *Pipeline, s *ObjectStore, opts CompileOptions) (*Plan, error) {
	return oven.Compile(p, s, opts)
}

// NewRuntime starts a serving runtime.
func NewRuntime(s *ObjectStore, cfg RuntimeConfig) *Runtime { return runtime.New(s, cfg) }

// NewLocalEngine wraps a runtime as a serving Engine — the in-process
// side of the transport-agnostic serving seam. opts configure
// compilation of uploaded models (nil = DefaultCompileOptions).
func NewLocalEngine(rt *Runtime, opts *CompileOptions) *LocalEngine {
	return serving.NewLocal(rt, opts)
}

// NewFrontEnd builds an HTTP front end over a runtime (wrapped in a
// local engine). To front a cluster instead, pass a routing engine to
// NewFrontEndOver.
func NewFrontEnd(rt *Runtime, cfg FrontEndConfig) *FrontEnd {
	return frontend.New(serving.NewLocal(rt, cfg.CompileOptions), cfg)
}

// NewFrontEndOver builds an HTTP front end over any serving engine
// (local or cluster router).
func NewFrontEndOver(eng Engine, cfg FrontEndConfig) *FrontEnd { return frontend.New(eng, cfg) }

// NewRouterEngine builds the cluster routing engine over a static
// member set: models are placed on K of N nodes by consistent
// hashing, predictions proxy to owners with retry-on-failover.
func NewRouterEngine(members []ClusterMember, cfg ClusterConfig) (*RouterEngine, error) {
	return cluster.NewRouter(members, cfg)
}

// NewChaosInjector wraps an engine with a disarmed deterministic
// fault injector: arm ChaosRules to inject latency, typed errors,
// kernel panics or blackouts into the traffic flowing through it. The
// seed makes every probabilistic decision replayable.
func NewChaosInjector(eng Engine, seed int64) *ChaosInjector { return chaos.New(eng, seed) }

// ImportPipeline deserializes a pipeline from exported model-file bytes.
func ImportPipeline(b []byte) (*Pipeline, error) { return pipeline.ImportBytes(b) }

// OpenModelRepo opens (creating if necessary) a versioned on-disk
// model repository rooted at dir.
func OpenModelRepo(dir string) (*ModelRepo, error) { return repo.Open(dir) }

// NewLifecycleManager wraps a local engine with the model storage
// tier: the repository holds every model on disk, RAM holds a budgeted
// working set, and cold models load lazily on first use.
func NewLifecycleManager(eng *LocalEngine, r *ModelRepo, cfg LifecycleConfig) (*LifecycleManager, error) {
	return lifecycle.New(eng, r, cfg)
}
