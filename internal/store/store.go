// Package store implements the PRETZEL Object Store (§4.1.3): a
// content-addressed registry that deduplicates operator parameters
// across model plans, plus the LRU cache backing sub-plan
// materialization (§4.3).
//
// "The Object Store is populated off-line by the Model Plan Compiler:
// when a Flour program is submitted for planning, new parameters are kept
// in the Object Store, while parameters that already exist are ignored
// and the stage information is rewritten to reuse the previously loaded
// one. Parameters equality is computed by looking at the checksum of the
// serialized version of the objects." That checksum is the SHA-256
// Digest, the only identity a parameter has.
//
// The store also indexes canonical operators by the bytes a model
// archive stores them as (RawKey), so a load that meets a parameter it
// already holds finds it before inflating or parsing anything.
package store

import (
	"container/list"
	"crypto/sha256"
	"fmt"
	"io"
	"slices"
	"sync"

	"pretzel/internal/ops"
	"pretzel/internal/vector"
)

// Digest is the collision-safe content address of a parameter: SHA-256
// over the dynamic type name and the canonical serialized bytes
// (ops.Param.WriteContent).
type Digest [sha256.Size]byte

// entry is one interned parameter with its content address and
// reference count.
type entry struct {
	val    ops.Param
	digest Digest
	refs   int
	// raw lists the raw-index keys whose operator holds val; they are
	// dropped with it.
	raw []RawKey
}

// RawKey names an operator's params.bin entry by what a model archive
// stores, before anything is inflated or parsed: a SHA-256 over the
// operator kind the manifest gives it, the entry's zip header fields and
// every stored byte a read of it checks (pipeline.ImportIndexed computes
// it). Equal keys inflate to equal bytes, which parse to interchangeable
// operators.
type RawKey Digest

// ObjectStore interns parameter objects.
type ObjectStore struct {
	mu       sync.Mutex
	byDigest map[Digest]*entry
	// byInstance indexes the same entries by their canonical instance:
	// a canonical parameter is its own proof of content equality, so
	// re-interning, releasing or signing it never re-serializes it.
	byInstance map[ops.Param]*entry
	// byRaw indexes canonical operators, every parameter of which is a
	// stored canonical instance, by the archive bytes they were parsed
	// from. It holds no reference: an entry goes as soon as any of its
	// operator's parameters is released to zero.
	byRaw map[RawKey]ops.Op

	hits, misses       uint64
	rawHits, rawMisses uint64
	digests            uint64
}

// New returns an empty Object Store.
func New() *ObjectStore {
	return &ObjectStore{
		byDigest:   make(map[Digest]*entry),
		byInstance: make(map[ops.Param]*entry),
		byRaw:      make(map[RawKey]ops.Op),
	}
}

// DigestOf computes the collision-safe content address of a parameter.
// A parameter whose WriteContent fails (a malformed object that cannot
// serialize) gets an address derived from the error and its own
// instance address under a distinguishing tag, so it never aliases
// another parameter — worst case it fails to dedup.
func DigestOf(p ops.Param) Digest {
	h := sha256.New()
	io.WriteString(h, fmt.Sprintf("%T\x00", p))
	if err := p.WriteContent(h); err != nil {
		io.WriteString(h, fmt.Sprintf("\x00!unserializable:%v:%p", err, p))
	}
	var d Digest
	h.Sum(d[:0])
	return d
}

// lookup finds p's canonical entry — by instance identity first, by
// content digest second — and returns it (nil when absent) with p's
// digest and s.mu held; the caller unlocks. The digest is computed
// outside the lock: serializing a large dictionary is the expensive part
// of interning, and concurrent registrations of different models must
// not serialize on one mutex for it.
func (s *ObjectStore) lookup(p ops.Param) (*entry, Digest) {
	s.mu.Lock()
	if e := s.byInstance[p]; e != nil {
		return e, e.digest
	}
	s.mu.Unlock()
	d := DigestOf(p)
	s.mu.Lock()
	s.digests++
	return s.byDigest[d], d
}

// Intern returns the canonical instance for p: if a parameter with
// byte-equal content is already stored that instance is returned (and p
// becomes garbage), otherwise p itself is stored and returned. The
// reference count of the canonical instance is incremented either way.
func (s *ObjectStore) Intern(p ops.Param) ops.Param {
	e, d := s.lookup(p)
	defer s.mu.Unlock()
	if e == nil {
		e = &entry{val: p, digest: d}
		s.byDigest[d] = e
		s.byInstance[p] = e
		s.misses++
	} else {
		s.hits++
	}
	e.refs++
	return e.val
}

// CanonicalDigest returns the stored content address of a canonical
// (interned) instance, located by identity — no re-serialization. ok is
// false when p is not the canonical instance of a stored entry; callers
// then fall back to DigestOf. The oven builds stage signatures from
// these digests, so signing a plan costs O(stages), not O(param bytes).
func (s *ObjectStore) CanonicalDigest(p ops.Param) (Digest, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.byInstance[p]; e != nil {
		return e.digest, true
	}
	return Digest{}, false
}

// Refs returns the current reference count of p's canonical entry
// (0 when p is not interned).
func (s *ObjectStore) Refs(p ops.Param) int {
	e, _ := s.lookup(p)
	defer s.mu.Unlock()
	if e == nil {
		return 0
	}
	return e.refs
}

// Release decrements the reference count of p's canonical instance,
// removing it from the store when it drops to zero.
func (s *ObjectStore) Release(p ops.Param) {
	e, _ := s.lookup(p)
	defer s.mu.Unlock()
	if e == nil {
		return
	}
	if e.refs--; e.refs <= 0 {
		delete(s.byDigest, e.digest)
		delete(s.byInstance, e.val)
		for _, k := range e.raw {
			s.dropRaw(k)
		}
	}
}

// LookupRaw returns the canonical operator indexed under k, counting a
// raw hit, or nil. It takes no reference: the operator's parameters are
// referenced when a compile interns them. If they are released to zero
// before that, the compile interns the same instances anew, or rewires a
// private copy when equal ones were interned meanwhile. Callers share
// the operator and must not write to it.
func (s *ObjectStore) LookupRaw(k RawKey) ops.Op {
	s.mu.Lock()
	defer s.mu.Unlock()
	op := s.byRaw[k]
	if op != nil {
		s.rawHits++
	}
	return op
}

// CountRawMiss counts a parameter-carrying operator that an indexed
// import did not find under its raw key and so inflated and parsed.
func (s *ObjectStore) CountRawMiss() {
	s.mu.Lock()
	s.rawMisses++
	s.mu.Unlock()
}

// RecordRaw indexes op under k once every parameter of op is a stored
// canonical instance, that is after a compile interned it. An operator
// without parameters is not indexed (nothing would ever drop it, and it
// is cheap to parse), and a key keeps the first operator recorded.
func (s *ObjectStore) RecordRaw(k RawKey, op ops.Op) {
	ps := op.Params()
	if len(ps) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.byRaw[k] != nil {
		return
	}
	for _, p := range ps {
		if s.byInstance[p] == nil {
			return
		}
	}
	s.byRaw[k] = op
	for _, p := range ps {
		e := s.byInstance[p]
		e.raw = append(e.raw, k)
	}
}

// dropRaw removes k from the raw index and from the lists of its
// operator's parameters that are still stored, so nothing keeps the
// operator alive. Caller holds s.mu.
func (s *ObjectStore) dropRaw(k RawKey) {
	op := s.byRaw[k]
	if op == nil {
		return
	}
	delete(s.byRaw, k)
	for _, p := range op.Params() {
		if e := s.byInstance[p]; e != nil {
			if j := slices.Index(e.raw, k); j >= 0 {
				e.raw = slices.Delete(e.raw, j, j+1)
			}
		}
	}
}

// Count returns the number of unique parameters stored.
func (s *ObjectStore) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byDigest)
}

// MemBytes sums the footprint of the unique stored parameters.
func (s *ObjectStore) MemBytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.byDigest {
		n += e.val.MemBytes()
	}
	return n
}

// Stats is a snapshot of intern hit/miss counters, the footprint of the
// unique stored parameters, and the white-box sharing view: how many
// references the unique parameters carry in total and how many bytes
// dedup saved versus every reference holding its own copy.
type Stats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Unique int    `json:"unique"`
	Bytes  int    `json:"bytes"`
	// Refs is the total reference count across unique parameters
	// (Refs - Unique references are served by sharing).
	Refs uint64 `json:"refs"`
	// BytesSaved is Σ (refs-1) × bytes per unique parameter: the RAM a
	// copy-per-reference (black-box) runtime would additionally hold.
	BytesSaved int64 `json:"bytes_saved"`
	// Digests counts content digests computed for instances that were
	// not canonical: each one re-serialized a parameter.
	Digests uint64 `json:"digests"`
	// RawHits counts operators an indexed import took from the raw
	// index (nothing inflated, parsed or digested); RawMisses the
	// parameter-carrying ones it had to inflate and parse. RawKeys is
	// the size of the raw index.
	RawHits   uint64 `json:"raw_hits"`
	RawMisses uint64 `json:"raw_misses"`
	RawKeys   int    `json:"raw_keys"`
}

// Stats returns a snapshot of the store counters.
func (s *ObjectStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Hits: s.hits, Misses: s.misses, Unique: len(s.byDigest),
		Digests: s.digests, RawHits: s.rawHits, RawMisses: s.rawMisses, RawKeys: len(s.byRaw)}
	for _, e := range s.byDigest {
		b := e.val.MemBytes()
		st.Bytes += b
		st.Refs += uint64(e.refs)
		if e.refs > 1 {
			st.BytesSaved += int64(e.refs-1) * int64(b)
		}
	}
	return st
}

// --- sub-plan materialization cache ---

// matKey identifies a cached stage result: the stage identity and the
// hash of the stage input.
type matKey struct {
	Stage uint64
	Input uint64
}

// matEntry is one cached result.
type matEntry struct {
	key   matKey
	val   *vector.Vector
	bytes int
}

// Shard count of the materialization cache (power of two). Sized above
// typical executor counts so batched probes from many concurrent jobs
// rarely meet on one mutex.
const (
	matCacheShardBits = 4
	matCacheShards    = 1 << matCacheShardBits
)

// matShard is one independently locked LRU with its own slice of the
// byte budget. The trailing pad keeps adjacent shards' mutexes off one
// cache line.
type matShard struct {
	mu       sync.Mutex
	capBytes int
	curBytes int
	lru      *list.List // of *matEntry, front = most recent
	index    map[matKey]*list.Element

	hits, misses uint64
	oversized    uint64 // Put rejections: value larger than the shard budget

	_ [64]byte
}

// MatCache is the cache for sub-plan materialization (§4.3): results of
// physical stages shared by many model plans, keyed by (stage ID, input
// hash). It is sharded — per-shard mutex and LRU, each shard owning an
// equal slice of the byte budget — so concurrent batched probes from
// many executors don't serialize on one lock.
type MatCache struct {
	shards [matCacheShards]matShard
}

// NewMatCache builds a cache with the given total byte budget.
func NewMatCache(capBytes int) *MatCache {
	c := &MatCache{}
	per := capBytes / matCacheShards
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.capBytes = per
		s.lru = list.New()
		s.index = make(map[matKey]*list.Element)
	}
	return c
}

// shardOf picks the home shard of a key. Stage and input hash are mixed
// so one hot stage's entries (and the concurrent batched probes against
// them) still spread over all shards.
func (c *MatCache) shardOf(k matKey) *matShard {
	h := (k.Stage ^ k.Input) * 0x9e3779b97f4a7c15
	return &c.shards[h>>(64-matCacheShardBits)]
}

// Get returns the cached output of (stage, inputHash), if present. The
// returned vector is owned by the cache: callers must copy it, not hold
// it. Prefer GetInto, which copies under the shard lock.
func (c *MatCache) Get(stage, inputHash uint64) (*vector.Vector, bool) {
	k := matKey{stage, inputHash}
	s := c.shardOf(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.index[k]
	if !ok {
		s.misses++
		return nil, false
	}
	s.lru.MoveToFront(el)
	s.hits++
	return el.Value.(*matEntry).val, true
}

// GetInto copies the cached output of (stage, inputHash) into dst and
// reports whether it was present. The copy happens under the shard
// lock, so the result is stable even against concurrent evictions.
func (c *MatCache) GetInto(stage, inputHash uint64, dst *vector.Vector) bool {
	k := matKey{stage, inputHash}
	s := c.shardOf(k)
	s.mu.Lock()
	el, ok := s.index[k]
	if !ok {
		s.misses++
		s.mu.Unlock()
		return false
	}
	s.lru.MoveToFront(el)
	s.hits++
	dst.CopyFrom(el.Value.(*matEntry).val)
	s.mu.Unlock()
	return true
}

// Put stores a copy of v as the output of (stage, inputHash), evicting
// LRU entries of the key's shard to stay within its budget. Values
// larger than a shard's whole budget (total budget / shard count, a
// tighter bound than the unsharded cache had) are not cached; such
// rejections are counted in CacheStats.Oversized so a workload whose
// materialized outputs outgrow the budget is visible in /statz rather
// than just a climbing miss rate.
func (c *MatCache) Put(stage, inputHash uint64, v *vector.Vector) {
	k := matKey{stage, inputHash}
	s := c.shardOf(k)
	cp := v.Clone()
	sz := cp.MemBytes() + 64
	if sz > s.capBytes {
		s.mu.Lock()
		s.oversized++
		s.mu.Unlock()
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, dup := s.index[k]; dup {
		s.lru.MoveToFront(el)
		return
	}
	for s.curBytes+sz > s.capBytes {
		back := s.lru.Back()
		if back == nil {
			break
		}
		e := back.Value.(*matEntry)
		s.lru.Remove(back)
		delete(s.index, e.key)
		s.curBytes -= e.bytes
	}
	e := &matEntry{key: k, val: cp, bytes: sz}
	s.index[k] = s.lru.PushFront(e)
	s.curBytes += sz
}

// Len returns the number of cached results across all shards.
func (c *MatCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}

// Bytes returns the current cache footprint across all shards.
func (c *MatCache) Bytes() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.curBytes
		s.mu.Unlock()
	}
	return n
}

// CacheStats is a snapshot of the materialization cache counters,
// aggregated over all shards.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Oversized uint64 `json:"oversized"` // Puts rejected: value > per-shard budget
	Entries   int    `json:"entries"`
	Bytes     int    `json:"bytes"`
	Shards    int    `json:"shards"`
}

// Stats returns a snapshot of cache counters.
func (c *MatCache) Stats() CacheStats {
	st := CacheStats{Shards: matCacheShards}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Oversized += s.oversized
		st.Entries += s.lru.Len()
		st.Bytes += s.curBytes
		s.mu.Unlock()
	}
	return st
}
