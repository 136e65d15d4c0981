package store

import (
	"errors"
	"io"
	"sync"
	"testing"

	"pretzel/internal/ml"
	"pretzel/internal/ops"
	"pretzel/internal/text"
	"pretzel/internal/vector"
)

func dict(terms ...string) *text.Dict {
	d := text.NewDict()
	for _, t := range terms {
		d.Add(t)
	}
	return d
}

func TestInternDedups(t *testing.T) {
	s := New()
	a := dict("x", "y")
	b := dict("x", "y") // equal content, different instance
	ca := s.Intern(a)
	cb := s.Intern(b)
	if ca != cb {
		t.Fatal("equal params must intern to one instance")
	}
	if s.Count() != 1 {
		t.Fatalf("count=%d", s.Count())
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats=%+v", st)
	}
	c := dict("z")
	s.Intern(c)
	if s.Count() != 2 {
		t.Fatal("different params must both be stored")
	}
}

func TestInternTypeDiscrimination(t *testing.T) {
	s := New()
	f1 := &ops.Floats{V: []float32{1}}
	d1 := dict() // empty dict
	s.Intern(f1)
	s.Intern(d1)
	if s.Count() != 2 {
		t.Fatal("different types must never collide")
	}
	// A tree featurizer serializes exactly its forest's bytes; the digest
	// is type-qualified, so the two stay apart.
	forest := &ml.Forest{Trees: []*ml.Tree{{Nodes: []ml.TreeNode{{Feature: -1, Value: 1}}, Leaves: 1}}}
	if s.Intern(forest) == ops.Param(s.Intern(ml.NewTreeFeaturizer(forest))) || s.Count() != 4 {
		t.Fatalf("a tree featurizer must not alias its forest (count=%d)", s.Count())
	}
}

func TestRelease(t *testing.T) {
	s := New()
	a := dict("x")
	s.Intern(a)
	s.Intern(dict("x")) // refs = 2
	s.Release(a)
	if s.Count() != 1 {
		t.Fatal("release below refcount must keep entry")
	}
	s.Release(a)
	if s.Count() != 0 {
		t.Fatal("final release must remove entry")
	}
	s.Release(a) // double release: no panic
}

func TestInternConcurrent(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Intern(dict("a", "b", "c"))
			}
		}()
	}
	wg.Wait()
	if s.Count() != 1 {
		t.Fatalf("count=%d after concurrent intern of equal dicts", s.Count())
	}
}

func sparse(dim int, pairs ...float32) *vector.Vector {
	v := vector.New(0)
	v.UseSparse(dim)
	for i := 0; i+1 < len(pairs); i += 2 {
		v.AppendSparse(int32(pairs[i]), pairs[i+1])
	}
	return v
}

func TestMatCacheBasics(t *testing.T) {
	c := NewMatCache(1 << 20)
	if _, ok := c.Get(1, 2); ok {
		t.Fatal("empty cache hit")
	}
	v := sparse(10, 1, 5)
	c.Put(1, 2, v)
	got, ok := c.Get(1, 2)
	if !ok || !got.Equal(v) {
		t.Fatal("cached value mismatch")
	}
	// The cache must hold a copy, not alias.
	v.Val[0] = 99
	got2, _ := c.Get(1, 2)
	if got2.Val[0] == 99 {
		t.Fatal("cache aliased the caller's vector")
	}
	// Same stage, different input -> miss.
	if _, ok := c.Get(1, 3); ok {
		t.Fatal("wrong-input hit")
	}
	// Different stage, same input -> miss.
	if _, ok := c.Get(9, 2); ok {
		t.Fatal("wrong-stage hit")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Entries != 1 || st.Bytes <= 0 {
		t.Fatalf("stats=%+v", st)
	}
}

// sameShardKeys returns n distinct input hashes for stage that all map
// to one shard of c (the cache is sharded; LRU order is per shard).
func sameShardKeys(c *MatCache, stage uint64, n int) []uint64 {
	home := c.shardOf(matKey{stage, 0})
	keys := []uint64{0}
	for h := uint64(1); len(keys) < n; h++ {
		if c.shardOf(matKey{stage, h}) == home {
			keys = append(keys, h)
		}
	}
	return keys
}

func TestMatCacheLRUEviction(t *testing.T) {
	// Per-shard budget fits ~2 entries of this size; keys are chosen to
	// share one shard so they compete for the same LRU.
	v := sparse(10, 1, 1)
	entrySize := v.Clone().MemBytes() + 64
	c := NewMatCache((entrySize*2 + entrySize/2) * matCacheShards)
	ks := sameShardKeys(c, 1, 3)
	c.Put(1, ks[0], v)
	c.Put(1, ks[1], v)
	// Touch ks[0] so ks[1] is LRU.
	c.Get(1, ks[0])
	c.Put(1, ks[2], v)
	if _, ok := c.Get(1, ks[1]); ok {
		t.Fatal("LRU entry should have been evicted")
	}
	if _, ok := c.Get(1, ks[0]); !ok {
		t.Fatal("recently used entry should survive")
	}
	if _, ok := c.Get(1, ks[2]); !ok {
		t.Fatal("new entry should be present")
	}
	if c.Len() != 2 {
		t.Fatalf("len=%d", c.Len())
	}
}

func TestMatCacheGetInto(t *testing.T) {
	c := NewMatCache(1 << 20)
	dst := vector.New(0)
	if c.GetInto(1, 2, dst) {
		t.Fatal("empty cache hit")
	}
	v := sparse(10, 1, 5)
	c.Put(1, 2, v)
	if !c.GetInto(1, 2, dst) || !dst.Equal(v) {
		t.Fatalf("GetInto mismatch: %v", dst)
	}
	// The copy must not alias the cached value.
	dst.Val[0] = 99
	dst2 := vector.New(0)
	if !c.GetInto(1, 2, dst2) || dst2.Val[0] == 99 {
		t.Fatal("GetInto aliased the cached vector")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Shards != matCacheShards {
		t.Fatalf("stats=%+v", st)
	}
}

func TestMatCacheShardedBudget(t *testing.T) {
	// Many distinct keys spread over shards: the total footprint must
	// stay within the configured budget, with each shard evicting
	// independently.
	v := sparse(32, 1, 1, 5, 2, 9, 3)
	entrySize := v.Clone().MemBytes() + 64
	budget := entrySize * matCacheShards * 2
	c := NewMatCache(budget)
	for i := uint64(0); i < 4*matCacheShards; i++ {
		c.Put(7, i, v)
	}
	if c.Bytes() > budget {
		t.Fatalf("footprint %d exceeds budget %d", c.Bytes(), budget)
	}
	if c.Len() == 0 || c.Len() > 2*matCacheShards {
		t.Fatalf("len=%d", c.Len())
	}
	if st := c.Stats(); st.Entries != c.Len() || st.Bytes != c.Bytes() {
		t.Fatalf("stats disagree with Len/Bytes: %+v", st)
	}
}

func TestMatCacheOversized(t *testing.T) {
	c := NewMatCache(128)
	big := vector.New(1 << 12)
	big.UseDense(1 << 12)
	c.Put(1, 1, big)
	if c.Len() != 0 {
		t.Fatal("oversized value must not be cached")
	}
	if st := c.Stats(); st.Oversized != 1 {
		t.Fatalf("oversized rejection must be counted: %+v", st)
	}
}

func TestMatCacheDuplicatePut(t *testing.T) {
	c := NewMatCache(1 << 20)
	v := sparse(4, 0, 1)
	c.Put(1, 1, v)
	c.Put(1, 1, v)
	if c.Len() != 1 {
		t.Fatal("duplicate put must not duplicate entries")
	}
	if c.Bytes() <= 0 {
		t.Fatal("bytes")
	}
}

func TestMatCacheConcurrent(t *testing.T) {
	c := NewMatCache(1 << 20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			v := sparse(8, float32(id%4), 1)
			for i := 0; i < 200; i++ {
				c.Put(uint64(id%4), 7, v)
				c.Get(uint64(id%4), 7)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() == 0 || c.Len() > 4 {
		t.Fatalf("len=%d", c.Len())
	}
}

// contentParam is a parameter whose serialized content the test picks.
// With err set it is malformed: WriteContent writes the content and
// then fails.
type contentParam struct {
	content string
	err     error
}

func (p *contentParam) MemBytes() int { return len(p.content) }
func (p *contentParam) WriteContent(w io.Writer) error {
	if _, err := io.WriteString(w, p.content); err != nil {
		return err
	}
	return p.err
}

// TestInternChecksumCollision: the content digest — §4.1.3's "checksum
// of the serialized version" — is a parameter's only identity, so
// distinct content never aliases, equal content dedups, and a parameter
// that cannot serialize aliases nothing.
func TestInternChecksumCollision(t *testing.T) {
	s := New()
	a := &contentParam{content: "model-A weights"}
	b := &contentParam{content: "model-B weights"}
	ca, cb := s.Intern(a), s.Intern(b)
	if ca == cb || s.Count() != 2 {
		t.Fatalf("distinct content must give two entries (count=%d)", s.Count())
	}
	if s.Intern(&contentParam{content: "model-B weights"}) != cb {
		t.Fatal("equal content must dedup")
	}
	truncated := errors.New("truncated")
	x := &contentParam{content: "model-A weights", err: truncated}
	y := &contentParam{content: "model-A weights", err: truncated}
	if s.Intern(x) != x || s.Intern(y) != y {
		t.Fatal("an unserializable parameter must alias neither a well-formed one nor another unserializable one")
	}
	if s.Count() != 4 {
		t.Fatalf("count=%d, want 4", s.Count())
	}
	if s.Refs(a) != 1 || s.Refs(b) != 2 || s.Refs(x) != 1 || s.Refs(y) != 1 {
		t.Fatalf("refs a=%d b=%d x=%d y=%d", s.Refs(a), s.Refs(b), s.Refs(x), s.Refs(y))
	}
	for _, p := range []ops.Param{a, b, cb, x, y} {
		s.Release(p)
	}
	if st := s.Stats(); s.Count() != 0 || st.Unique != 0 || st.Refs != 0 || st.Bytes != 0 {
		t.Fatalf("count=%d stats=%+v after releasing all", s.Count(), st)
	}
}

func TestStatsSharingView(t *testing.T) {
	s := New()
	a := s.Intern(dict("x", "y"))
	s.Intern(dict("x", "y"))
	s.Intern(dict("x", "y")) // refs = 3
	st := s.Stats()
	if st.Unique != 1 || st.Refs != 3 {
		t.Fatalf("stats=%+v", st)
	}
	if want := int64(2) * int64(a.MemBytes()); st.BytesSaved != want {
		t.Fatalf("bytes_saved=%d want %d", st.BytesSaved, want)
	}
}
