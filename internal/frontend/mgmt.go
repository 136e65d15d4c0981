// Management plane of the FrontEnd: the white-box operator surface.
// PRETZEL's pitch is that the serving system sees inside model plans;
// these endpoints let operators see inside the server — per-stage
// latency/execution counters, catalog sharing, pool and scheduler
// state — and manage the versioned model lifecycle over HTTP:
//
//	GET    /models               list models, labels and versions
//	GET    /models/{name}        one model with per-stage counters
//	POST   /models               register from an uploaded zip
//	DELETE /models/{name}        unregister (name, name@version, name@label)
//	POST   /models/{name}/labels move a label (hot swap)
//	POST   /models/{name}/warm   load the model into serving RAM now
//	GET    /models/{name}/zip    export one version's zip (?version=N)
//	GET    /cluster/members      list cluster member IDs (router only)
//	POST   /cluster/members      join a node: {"id","addr"} (router only)
//	DELETE /cluster/members?id=  leave a node (router only)
//	GET    /statz                engine / batcher / cache stats
//	GET    /healthz              liveness probe
//	GET    /readyz               readiness probe (cluster health checks)
//
// Every operation goes through the serving.Engine seam: over a local
// engine the registration compiles in-process; over a routing engine
// it is forwarded to the model's owner nodes.
package frontend

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"pretzel/internal/repo"
	"pretzel/internal/runtime"
	"pretzel/internal/serving"
)

const defaultMaxUploadBytes = 64 << 20

// errorBody is the uniform management-plane error response.
type errorBody struct {
	Error string `json:"error"`
}

func writeErr(w http.ResponseWriter, err error) {
	writeJSON(w, statusFor(err), errorBody{Error: err.Error()})
}

// ModelsResponse is the GET /models body.
type ModelsResponse struct {
	Models []runtime.ModelInfo `json:"models"`
}

// handleModels lists every registered model with labels and versions.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ModelsResponse{Models: s.eng.Models()})
}

// ModelDetail is the GET /models/{name} body: the engine's white-box
// view (stages, labels, per-model load with latency percentiles) plus
// the front end's adaptive-batcher state when the model has one.
type ModelDetail struct {
	runtime.ModelInfo
	Batcher *BatcherStats `json:"batcher,omitempty"`
}

// handleModelGet returns one model's white-box view, including the
// per-stage latency and execution counters gathered by the executors,
// the model's overload-plane load (in-flight, shed, p50/p95/p99) and
// its adaptive-batcher state.
func (s *Server) handleModelGet(w http.ResponseWriter, r *http.Request) {
	name, _ := runtime.SplitRef(r.PathValue("name"))
	info, err := s.eng.ModelInfo(name)
	if err != nil {
		writeErr(w, err)
		return
	}
	detail := ModelDetail{ModelInfo: info}
	// The batcher map is keyed by the reference requests used; surface
	// any batcher whose reference resolves to this bare name.
	for ref, bst := range s.BatcherStats() {
		if n, _ := runtime.SplitRef(ref); n == name {
			bst := bst
			if detail.Batcher == nil {
				detail.Batcher = &bst
			} else {
				detail.Batcher.Pending += bst.Pending
				detail.Batcher.Flushes += bst.Flushes
				detail.Batcher.Records += bst.Records
				detail.Batcher.Shed += bst.Shed
				detail.Batcher.Grows += bst.Grows
				detail.Batcher.Shrinks += bst.Shrinks
				detail.Batcher.FlushErrs += bst.FlushErrs
			}
		}
	}
	writeJSON(w, http.StatusOK, detail)
}

// RegisterResponse is the POST /models success body.
type RegisterResponse = serving.RegisterResult

// handleModelUpload registers a model from an uploaded zip (the format
// exported by pretzel-train / pipeline.Export). Query parameters:
//
//	name    override the pipeline's embedded name
//	version install as this version (default: next free)
//	label   point this label at the new version after install
func (s *Server) handleModelUpload(w http.ResponseWriter, r *http.Request) {
	maxBytes := s.cfg.MaxUploadBytes
	if maxBytes <= 0 {
		maxBytes = defaultMaxUploadBytes
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBytes))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "reading upload: " + err.Error()})
		return
	}
	opts := serving.RegisterOptions{
		Name:  r.URL.Query().Get("name"),
		Label: r.URL.Query().Get("label"),
	}
	if v := r.URL.Query().Get("version"); v != "" {
		opts.Version, err = strconv.Atoi(v)
		if err != nil || opts.Version <= 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad version %q", v)})
			return
		}
	}
	reg, err := s.eng.Register(raw, opts)
	if err != nil {
		if errors.Is(err, serving.ErrBadModel) || errors.Is(err, runtime.ErrInvalidInput) ||
			errors.Is(err, runtime.ErrModelNotFound) || errors.Is(err, runtime.ErrOverloaded) ||
			errors.Is(err, runtime.ErrClosed) || errors.Is(err, serving.ErrNotReady) ||
			errors.Is(err, repo.ErrStorage) {
			// Typed failures keep their proper status — in particular an
			// unavailable engine (closed runtime, unreachable owner
			// nodes) is 503, not a bogus "conflict" the client would
			// never retry.
			writeErr(w, err)
			return
		}
		// Anything else (duplicate version, …) is a conflict.
		writeJSON(w, http.StatusConflict, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusCreated, reg)
}

// handleModelDelete unregisters a model reference, draining in-flight
// work first. A bare name removes every version; name@ref removes one.
func (s *Server) handleModelDelete(w http.ResponseWriter, r *http.Request) {
	ref := r.PathValue("name")
	if err := s.eng.Unregister(ref); err != nil {
		writeErr(w, err)
		return
	}
	name, _ := runtime.SplitRef(ref)
	s.dropBatchers(name)
	writeJSON(w, http.StatusOK, map[string]any{"deleted": ref})
}

// LabelRequest is the POST /models/{name}/labels body.
type LabelRequest struct {
	Label   string `json:"label"`
	Version int    `json:"version"`
}

// handleSetLabel atomically points a label at an installed version —
// the HTTP face of the hot swap.
func (s *Server) handleSetLabel(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req LabelRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if err := s.eng.SetLabel(name, req.Label, req.Version); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"name": name, "label": req.Label, "version": req.Version})
}

// PinRequest is the POST /models/{name}/pin body. An empty body pins.
type PinRequest struct {
	Pinned bool `json:"pinned"`
}

// pinner is the optional lifecycle capability: an engine stack with a
// model storage tier (lifecycle.Manager) in it exposes Pin; everything
// else answers 501. Like every optional capability here it is looked
// up with serving.As, which sees through middlewares.
type pinner interface {
	Pin(name string, pinned bool) error
}

// handleModelPin marks a model exempt from (or, with {"pinned":false},
// subject to) the lifecycle tier's budget eviction. Pinning a cold
// model loads it.
func (s *Server) handleModelPin(w http.ResponseWriter, r *http.Request) {
	p, ok := serving.As[pinner](s.eng)
	if !ok {
		writeErr(w, fmt.Errorf("%w: no lifecycle manager attached", serving.ErrUnsupported))
		return
	}
	req := PinRequest{Pinned: true}
	if r.ContentLength != 0 {
		if err := decodeBody(w, r, &req); err != nil {
			writeErr(w, err)
			return
		}
	}
	name, _ := runtime.SplitRef(r.PathValue("name"))
	if err := p.Pin(name, req.Pinned); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"name": name, "pinned": req.Pinned})
}

// warmer is the optional lifecycle capability behind POST
// /models/{name}/warm: load a repository-managed model into RAM now
// (the cluster rebalancer's pre-warm hook). Engines without a
// lifecycle tier answer 501 — whatever they hold is already resident.
type warmer interface {
	Warm(name string) error
}

// handleModelWarm synchronously loads one model into serving RAM, so a
// caller (a rebalancing router, an operator before a launch) knows the
// first real request will not pay the cold start.
func (s *Server) handleModelWarm(w http.ResponseWriter, r *http.Request) {
	wm, ok := serving.As[warmer](s.eng)
	if !ok {
		writeErr(w, fmt.Errorf("%w: no lifecycle manager attached", serving.ErrUnsupported))
		return
	}
	name, _ := runtime.SplitRef(r.PathValue("name"))
	if err := wm.Warm(name); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"name": name, "warm": true})
}

// zipExporter is the optional capability behind GET
// /models/{name}/zip: read one installed version's zip bytes back out
// of the repository (integrity-verified) for replication to another
// node.
type zipExporter interface {
	ExportVersion(name string, version int) ([]byte, error)
}

// handleModelZip streams one version's model zip, the replication
// source for cluster rebalancing. The version query parameter is
// required: replication always targets a concrete version, and
// guessing "latest" here could silently copy the wrong bytes.
func (s *Server) handleModelZip(w http.ResponseWriter, r *http.Request) {
	ze, ok := serving.As[zipExporter](s.eng)
	if !ok {
		writeErr(w, fmt.Errorf("%w: no model repository attached", serving.ErrUnsupported))
		return
	}
	name, _ := runtime.SplitRef(r.PathValue("name"))
	version, err := strconv.Atoi(r.URL.Query().Get("version"))
	if err != nil || version <= 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "version query parameter required"})
		return
	}
	raw, err := ze.ExportVersion(name, version)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/zip")
	w.Header().Set("Content-Length", strconv.Itoa(len(raw)))
	_, _ = w.Write(raw)
}

// memberAdmin is the optional cluster-membership capability behind the
// /cluster/members endpoints: only a routing engine can join and leave
// nodes.
type memberAdmin interface {
	AddMember(id, addr string) error
	RemoveMember(id string) error
}

// MemberRequest is the POST /cluster/members body.
type MemberRequest struct {
	ID   string `json:"id,omitempty"`
	Addr string `json:"addr"`
}

// handleMembersGet lists the cluster's member IDs — on a routing
// engine the per-node view already lives in /statz, so this is the
// cheap membership check scripts poll during churn drills.
func (s *Server) handleMembersGet(w http.ResponseWriter, r *http.Request) {
	st := s.eng.Stats()
	if st.Cluster == nil {
		writeErr(w, fmt.Errorf("%w: not a routing engine", serving.ErrUnsupported))
		return
	}
	ids := make([]string, 0, len(st.Cluster.Nodes))
	for _, n := range st.Cluster.Nodes {
		ids = append(ids, n.ID)
	}
	writeJSON(w, http.StatusOK, map[string]any{"members": ids})
}

// handleMemberAdd joins a node to the cluster. The call returns after
// the rebalancer pre-warmed the new member's share of the catalog and
// swapped the ring: a 200 means traffic is already flowing warm.
func (s *Server) handleMemberAdd(w http.ResponseWriter, r *http.Request) {
	ma, ok := serving.As[memberAdmin](s.eng)
	if !ok {
		writeErr(w, fmt.Errorf("%w: not a routing engine", serving.ErrUnsupported))
		return
	}
	var req MemberRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if req.Addr == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "body must be {\"addr\": \"host:port\"} (id optional)"})
		return
	}
	if err := ma.AddMember(req.ID, req.Addr); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"added": req.Addr})
}

// handleMemberRemove leaves a node from the cluster. The member ID
// rides in the ?id= query parameter — IDs default to full base URLs,
// and slashes do not survive a path segment.
func (s *Server) handleMemberRemove(w http.ResponseWriter, r *http.Request) {
	ma, ok := serving.As[memberAdmin](s.eng)
	if !ok {
		writeErr(w, fmt.Errorf("%w: not a routing engine", serving.ErrUnsupported))
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "id query parameter required"})
		return
	}
	if err := ma.RemoveMember(id); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"removed": id})
}

// Statz is the GET /statz body: the server-wide white-box counters —
// the engine's snapshot (catalog, pools, scheduler, admission,
// per-model latency percentiles for a local engine; node health,
// breakers and forwarding counters for a routing engine) plus the
// front end's own caches and batchers.
type Statz struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	serving.Stats
	Batchers map[string]BatcherStats `json:"batchers,omitempty"`
	Cache    CacheStats              `json:"cache"`
}

// handleStatz reports engine, batcher and cache statistics: queue
// depths, admission state, per-model p50/p95/p99, in-flight and shed
// counts, the adaptive batchers' targets — or, behind a routing
// engine, per-node health and failover counters.
func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, Statz{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Stats:         s.eng.Stats(),
		Batchers:      s.BatcherStats(),
		Cache:         s.CacheStats(),
	})
}
