package vector

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Pool is a sharded, size-classed free list of vectors (§4.2.1: the
// prediction path never allocates; memory instantiation costs are paid
// upfront). Each shard owns its own mutex, free lists and statistics, so
// goroutines on different cores do not contend on one global lock. Shard
// selection is a cheap round-robin by default; long-lived owners (an
// executor, a pooled execution context) pin themselves to one shard with
// ShardHint for locality.
//
// The batch API (GetN / PutN) acquires or releases all the vectors of a
// pipeline execution in ONE shard visit — one atomic op plus one short
// critical section per prediction instead of one lock round-trip per
// intermediate vector.
//
// Pool is safe for concurrent use: vectors are requested per pipeline and
// a pipeline's later stages may run on a different executor than the one
// owning the pool the vectors came from.
type Pool struct {
	shards []poolShard
	mask   uint32
	cursor atomic.Uint32
}

// nClasses size classes: capacities 1<<6 .. 1<<(6+nClasses-1).
const (
	nClasses   = 16
	minShift   = 6
	maxVecCap  = 1 << (minShift + nClasses - 1)
	maxPerList = 1024 // per-shard, per-class retention cap
)

// poolShard is one independently locked free list with its own counters.
// The trailing pad keeps adjacent shards off one cache line, so per-shard
// atomics and locks do not false-share.
type poolShard struct {
	mu      sync.Mutex
	classes [nClasses][]*Vector

	// Stats are atomics so Stats() aggregates without taking locks and
	// the hit/alloc accounting never serializes the hot path.
	gets   atomic.Uint64
	hits   atomic.Uint64
	allocs atomic.Uint64
	puts   atomic.Uint64

	_ [64]byte
}

// NewPool returns an empty single-shard pool (the uncontended
// configuration: per-executor pools and tests).
func NewPool() *Pool { return NewPoolShards(1) }

// NewPoolShards returns an empty pool with n shards (rounded up to a
// power of two). Use one shard per core for pools shared across request
// goroutines.
func NewPoolShards(n int) *Pool {
	if n < 1 {
		n = 1
	}
	if n > 64 {
		n = 64
	}
	n = 1 << bits.Len(uint(n-1)) // round up to a power of two
	return &Pool{shards: make([]poolShard, n), mask: uint32(n - 1)}
}

// ShardHint hands out a shard index round-robin. Long-lived owners call
// it once and pass the hint to GetN/PutN so their traffic stays on one
// shard (goroutine affinity without runtime support).
func (p *Pool) ShardHint() uint32 { return p.cursor.Add(1) & p.mask }

func (p *Pool) shard(hint uint32) *poolShard { return &p.shards[hint&p.mask] }

// classFor returns the size class whose vectors have dense capacity >= n,
// or -1 when n exceeds the largest class. O(1) via bits.Len.
func classFor(n int) int {
	if n <= 1<<minShift {
		return 0
	}
	c := bits.Len(uint(n-1)) - minShift
	if c >= nClasses {
		return -1
	}
	return c
}

// floorClassFor returns the largest class whose nominal size is <= c
// capacity bytes — the class a returned vector can actually serve.
func floorClassFor(capDense int) int {
	fc := bits.Len(uint(capDense)) - 1 - minShift
	if fc < 0 {
		return 0
	}
	if fc >= nClasses {
		fc = nClasses - 1
	}
	return fc
}

// GetN fills dst with vectors sized by capHints (len(capHints) must equal
// len(dst)) in a single shard visit: one lock round-trip for the whole
// pipeline execution. Misses are allocated outside the critical section.
func (p *Pool) GetN(hint uint32, dst []*Vector, capHints []int) {
	s := p.shard(hint)
	s.gets.Add(uint64(len(dst)))
	var hits, misses uint64
	s.mu.Lock()
	for i := range dst {
		dst[i] = nil
		c := classFor(capHints[i])
		if c < 0 {
			misses++
			continue
		}
		for cc := c; cc < nClasses; cc++ {
			if n := len(s.classes[cc]); n > 0 {
				v := s.classes[cc][n-1]
				s.classes[cc][n-1] = nil
				s.classes[cc] = s.classes[cc][:n-1]
				dst[i] = v
				hits++
				break
			}
		}
		if dst[i] == nil {
			misses++
		}
	}
	s.mu.Unlock()
	s.hits.Add(hits)
	s.allocs.Add(misses)
	for i := range dst {
		if dst[i] != nil {
			dst[i].Reset()
			continue
		}
		capHint := capHints[i]
		if c := classFor(capHint); c >= 0 {
			capHint = 1 << (minShift + c)
		}
		dst[i] = New(capHint)
	}
}

// GetNUniform is GetN with one capacity hint for every slot (the batch
// engine's row acquisition: all records of a stage share one OutCap).
func (p *Pool) GetNUniform(hint uint32, dst []*Vector, capHint int) {
	s := p.shard(hint)
	s.gets.Add(uint64(len(dst)))
	c := classFor(capHint)
	var hits uint64
	if c >= 0 {
		s.mu.Lock()
		for i := range dst {
			dst[i] = nil
			for cc := c; cc < nClasses; cc++ {
				if n := len(s.classes[cc]); n > 0 {
					v := s.classes[cc][n-1]
					s.classes[cc][n-1] = nil
					s.classes[cc] = s.classes[cc][:n-1]
					dst[i] = v
					hits++
					break
				}
			}
		}
		s.mu.Unlock()
		capHint = 1 << (minShift + c)
	} else {
		for i := range dst {
			dst[i] = nil
		}
	}
	s.hits.Add(hits)
	s.allocs.Add(uint64(len(dst)) - hits)
	for i := range dst {
		if dst[i] != nil {
			dst[i].Reset()
		} else {
			dst[i] = New(capHint)
		}
	}
}

// PutN returns all of vs (nil entries skipped) in a single shard visit.
func (p *Pool) PutN(hint uint32, vs []*Vector) {
	s := p.shard(hint)
	n := 0
	for _, v := range vs {
		if v != nil {
			n++
		}
	}
	if n == 0 {
		return
	}
	s.puts.Add(uint64(n))
	// Reset outside the critical section; the class computation is O(1).
	for _, v := range vs {
		if v != nil && cap(v.Dense) <= maxVecCap {
			v.Reset()
		}
	}
	s.mu.Lock()
	for _, v := range vs {
		if v == nil || cap(v.Dense) > maxVecCap {
			continue
		}
		c := floorClassFor(cap(v.Dense))
		if len(s.classes[c]) < maxPerList {
			s.classes[c] = append(s.classes[c], v)
		}
	}
	s.mu.Unlock()
}

// PoolStats is a snapshot of pool counters aggregated over shards.
type PoolStats struct {
	Gets, Hits, Allocs, Puts uint64
}

// Add accumulates o into st (for aggregating multiple pools).
func (st *PoolStats) Add(o PoolStats) {
	st.Gets += o.Gets
	st.Hits += o.Hits
	st.Allocs += o.Allocs
	st.Puts += o.Puts
}

// Stats returns a snapshot of the pool counters. Lock-free: counters are
// atomics, so a snapshot taken under concurrent traffic is approximate
// but each counter is internally consistent.
func (p *Pool) Stats() PoolStats {
	var st PoolStats
	for i := range p.shards {
		s := &p.shards[i]
		st.Gets += s.gets.Load()
		st.Hits += s.hits.Load()
		st.Allocs += s.allocs.Load()
		st.Puts += s.puts.Load()
	}
	return st
}
