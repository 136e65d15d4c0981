// Warmth map: the router's view of each member's lifecycle state. A
// poll loop reads every member's GET /models (per-model warm / cold /
// loading state) and GET /statz (lifecycle residency vs budget,
// cold-load count) into an immutable per-member snapshot, and the
// placement scorer steers each predict toward the warm replica among
// the K ring owners — PRETZEL's model-density argument only pays off
// in a fleet when requests land where the model is already resident.
package cluster

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"pretzel/internal/frontend"
	"pretzel/internal/runtime"
	"pretzel/internal/serving"
)

// nodeWarmth is one member's lifecycle snapshot, rebuilt atomically
// each poll round (readers never see a half-updated map).
type nodeWarmth struct {
	// models maps bare model name → lifecycle state ("warm", "cold",
	// "loading", "evicting"; "" for models without lifecycle state —
	// plain runtime registrations are always resident).
	models map[string]string
	// residentBytes/budgetBytes mirror the member's lifecycle tier
	// (zero when the member runs without one).
	residentBytes int64
	budgetBytes   int64
	// coldLoads is the member's cumulative disk→RAM load count.
	coldLoads uint64
	// warm/cold count models by state for the cluster residency view.
	warm, cold int
}

// saturated reports residency at or above the member's budget: a cold
// load placed here evicts something else first.
func (w *nodeWarmth) saturated() bool {
	return w.budgetBytes > 0 && w.residentBytes >= w.budgetBytes
}

// warmState reports whether a lifecycle state means the model serves
// from RAM without a disk load. "loading" counts: by the time a routed
// request arrives the single-flight load is the fastest path to a
// result. The empty state is a model without lifecycle management —
// always resident.
func warmState(state string) bool {
	switch state {
	case "", "warm", "loading":
		return true
	default:
		return false
	}
}

// warmthLoop polls every member's warmth on WarmthInterval until the
// router closes. One goroutine; stopped by Close.
func (r *Router) warmthLoop() {
	defer r.bg.Done()
	r.pollWarmth()
	t := time.NewTicker(r.cfg.WarmthInterval)
	defer t.Stop()
	for {
		select {
		case <-r.warmthStop:
			return
		case <-t.C:
			r.pollWarmth()
		}
	}
}

// pollWarmth refreshes every member's snapshot concurrently (bounded
// by opTimeout per request, like every management-plane call).
func (r *Router) pollWarmth() {
	var wg sync.WaitGroup
	for _, m := range r.reg.all() {
		wg.Add(1)
		go func(m *memberState) {
			defer wg.Done()
			r.pollMemberWarmth(m)
		}(m)
	}
	wg.Wait()
}

// pollMemberWarmth rebuilds one member's warmth snapshot. A member
// that cannot answer keeps its previous snapshot — stale warmth plus
// the health penalty beats flapping to "unknown" on one slow poll.
func (r *Router) pollMemberWarmth(m *memberState) {
	if !m.healthy.Load() {
		return
	}
	resp, err := r.opDo(http.MethodGet, m.Addr+"/models", "", nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		return
	}
	var list frontend.ModelsResponse
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		return
	}
	w := &nodeWarmth{models: make(map[string]string, len(list.Models))}
	for _, mi := range list.Models {
		name, _ := runtime.SplitRef(mi.Name)
		w.models[name] = mi.State
		if warmState(mi.State) {
			w.warm++
		} else {
			w.cold++
		}
	}
	// Residency vs budget from /statz (best-effort: a member without a
	// lifecycle tier reports no lifecycle section and scores neutral).
	if resp, err := r.opDo(http.MethodGet, m.Addr+"/statz", "", nil); err == nil {
		var statz struct {
			Lifecycle *serving.LifecycleStats `json:"lifecycle"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&statz)
		resp.Body.Close()
		if derr == nil && statz.Lifecycle != nil {
			w.residentBytes = statz.Lifecycle.ResidentBytes
			w.budgetBytes = statz.Lifecycle.BudgetBytes
			w.coldLoads = statz.Lifecycle.ColdLoads
		}
	}
	m.warmth.Store(w)
}

// placementScore ranks one owner for one model — lower is better, 0 is
// a perfect destination. The scale is lexicographic: availability
// dominates quarantine dominates warmth dominates saturation, so a
// quarantined-but-warm replica (4) always loses to a healthy-cold one
// (2 or 3), and hash order breaks every tie (stable sort).
func (r *Router) placementScore(m *memberState, name string) int {
	s := 0
	if !m.up() {
		s += 8
	}
	if m.isQuarantined(name) {
		s += 4
	}
	if w := m.warmthSnapshot(); w != nil {
		if state, known := w.models[name]; known && !warmState(state) {
			s += 2
			if w.saturated() {
				s++
			}
		}
	}
	return s
}

// routeOrder returns the owners to try, in placement-score order with
// ring order as the tiebreak: warm, healthy, unquarantined replicas
// first, saturated and cold ones later, probed-down ones last — but
// never dropped, so a model whose every owner looks bad is degraded,
// not blacked out (probes and warmth can be stale; the breaker absorbs
// the rest). With HashOnly set, only health reorders (the pre-warmth
// behavior); the warmth map still polls for observability.
func (r *Router) routeOrder(name string, owners []*memberState) []*memberState {
	if len(owners) < 2 {
		return owners
	}
	scored := false
	scores := make([]int, len(owners))
	for i, m := range owners {
		s := 0
		if r.cfg.HashOnly {
			if !m.up() {
				s = 8
			}
		} else {
			s = r.placementScore(m, name)
		}
		scores[i] = s
		scored = scored || s != 0
	}
	if !scored {
		return owners
	}
	ordered := make([]*memberState, len(owners))
	copy(ordered, owners)
	// Insertion sort: owner sets are tiny (K replicas) and stability
	// preserves hash order within a score class.
	for i := 1; i < len(ordered); i++ {
		for j := i; j > 0 && scores[j-1] > scores[j]; j-- {
			scores[j-1], scores[j] = scores[j], scores[j-1]
			ordered[j-1], ordered[j] = ordered[j], ordered[j-1]
		}
	}
	return ordered
}

// noteRouteWarmth classifies where the first attempt of a predict
// landed: on a replica the warmth map knows is cold (a cold-start
// route — what churn storms look like) or anywhere else.
func (r *Router) noteRouteWarmth(m *memberState, name string) {
	if w := m.warmthSnapshot(); w != nil {
		if state, known := w.models[name]; known && !warmState(state) {
			r.coldRouted.Add(1)
			return
		}
	}
	r.warmRouted.Add(1)
}
