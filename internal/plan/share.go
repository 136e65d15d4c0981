package plan

import (
	"sync"
)

// Sig is a structural stage signature: SHA-256 over the kernel kind,
// the fused operator configs, the canonical parameter content digests,
// pushed-through weights and the stage wiring (input slots, output
// capacity, flags). Two stages with equal signatures are functionally
// interchangeable, so the plan store shares one compiled instance
// between them.
type Sig [32]byte

// MemEstimate approximates the stage's own retained bytes outside the
// Object Store: struct, kernel and metrics overhead. Weight blocks the
// kernel holds (pushed-through slices, materialized model pointers) are
// views over parameters the plan interned in the Object Store, so they
// are charged there, not here.
func (s *Stage) MemEstimate() int { return 256 }

// Shared reports whether the stage is owned by a StageStore (and hence
// possibly referenced by several plans). Set under the store lock
// before the stage is first published; read-only afterwards.
func (s *Stage) Shared() bool { return s.shared }

// stageEntry is one refcounted compiled stage.
type stageEntry struct {
	st   *Stage
	refs int
}

// StageStore interns compiled stages by structural signature, the plan-
// level analogue of the parameter Object Store (§4.1.3 lifted from
// parameters to whole physical stages). Plans produced from
// structurally identical pipelines bind the same *Stage — one kernel,
// one metrics block, one materialization identity — so registering the
// 10,001st variant of a model costs only its unique stages.
type StageStore struct {
	mu     sync.Mutex
	stages map[Sig]*stageEntry
	hits   uint64
	misses uint64
}

// NewStageStore returns an empty plan store.
func NewStageStore() *StageStore {
	return &StageStore{stages: make(map[Sig]*stageEntry)}
}

// Intern returns the canonical compiled stage for sig, calling build to
// construct it on first sight. hit reports whether an existing stage
// was shared. The build error, if any, is returned unchanged and
// leaves the store untouched.
func (ss *StageStore) Intern(sig Sig, build func() (*Stage, error)) (st *Stage, hit bool, err error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if e, ok := ss.stages[sig]; ok {
		e.refs++
		ss.hits++
		return e.st, true, nil
	}
	st, err = build()
	if err != nil {
		return nil, false, err
	}
	st.Sig = sig
	st.shared = true
	ss.stages[sig] = &stageEntry{st: st, refs: 1}
	ss.misses++
	return st, false, nil
}

// Release gives back one reference on a stage obtained from Intern,
// deleting the entry when the last reference drops. Stages that were
// never interned (or belong to another store) are ignored, so release
// paths may hand over every stage of a plan unconditionally.
func (ss *StageStore) Release(st *Stage) {
	if st == nil || !st.shared {
		return
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	e, ok := ss.stages[st.Sig]
	if !ok || e.st != st {
		return
	}
	e.refs--
	if e.refs <= 0 {
		delete(ss.stages, st.Sig)
	}
}

// Refs returns the current reference count of a stage (0 when absent).
func (ss *StageStore) Refs(st *Stage) int {
	if st == nil || !st.shared {
		return 0
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if e, ok := ss.stages[st.Sig]; ok && e.st == st {
		return e.refs
	}
	return 0
}

// MemBytes sums the footprint of the unique interned stages (their own
// overhead plus pushed weights; Object Store parameters are charged to
// the Object Store, not here).
func (ss *StageStore) MemBytes() int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	n := 0
	for _, e := range ss.stages {
		n += e.st.MemEstimate()
	}
	return n
}

// StageStoreStats is a white-box snapshot of plan-store sharing.
type StageStoreStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Unique int    `json:"unique"`
	Refs   uint64 `json:"refs"`
	Bytes  int    `json:"bytes"`
	// BytesSaved is Σ (refs-1) × stage bytes: what per-plan stage copies
	// would additionally cost.
	BytesSaved int64 `json:"bytes_saved"`
}

// Stats returns a snapshot of the plan-store counters.
func (ss *StageStore) Stats() StageStoreStats {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	st := StageStoreStats{Hits: ss.hits, Misses: ss.misses, Unique: len(ss.stages)}
	for _, e := range ss.stages {
		b := e.st.MemEstimate()
		st.Bytes += b
		st.Refs += uint64(e.refs)
		if e.refs > 1 {
			st.BytesSaved += int64(e.refs-1) * int64(b)
		}
	}
	return st
}
