package vector

import (
	"strings"
	"sync"
	"testing"
)

func TestPoolShardsRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16}, {64, 64}, {100, 64},
	} {
		if got := NewPoolShards(tc.in).NumShards(); got != tc.want {
			t.Fatalf("NewPoolShards(%d).NumShards() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestPoolGetNPutN(t *testing.T) {
	p := NewPoolShards(4)
	hint := p.ShardHint()
	caps := []int{100, 30, 500}
	row := make([]*Vector, len(caps))
	p.GetN(hint, row, caps)
	for i, v := range row {
		if v == nil || cap(v.Dense) < caps[i] {
			t.Fatalf("slot %d: got %v (cap %d, want >= %d)", i, v, cap(v.Dense), caps[i])
		}
	}
	first := append([]*Vector(nil), row...)
	p.PutN(hint, row)
	// Same shard: the batch must be served entirely from the free lists.
	row2 := make([]*Vector, len(caps))
	p.GetN(hint, row2, caps)
	for i, v := range row2 {
		found := false
		for _, f := range first {
			if v == f {
				found = true
			}
		}
		if !found {
			t.Fatalf("slot %d not reused after PutN/GetN on one shard", i)
		}
	}
	st := p.Stats()
	if st.Gets != 6 || st.Puts != 3 || st.Hits != 3 || st.Allocs != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPoolGetNUniform(t *testing.T) {
	p := NewPool()
	row := make([]*Vector, 8)
	p.GetNUniform(0, row, 128)
	for i, v := range row {
		if v == nil || cap(v.Dense) < 128 {
			t.Fatalf("slot %d too small", i)
		}
	}
	p.PutN(0, row)
	row2 := make([]*Vector, 8)
	p.GetNUniform(0, row2, 100)
	st := p.Stats()
	if st.Hits != 8 {
		t.Fatalf("uniform re-get should hit 8 times: %+v", st)
	}
}

func TestPoolPutNSkipsNilAndOversized(t *testing.T) {
	p := NewPool()
	big := New(maxVecCap * 2)
	p.PutN(0, []*Vector{nil, big, nil})
	st := p.Stats()
	if st.Puts != 1 {
		t.Fatalf("only the non-nil vector counts as a put: %+v", st)
	}
	if got := p.Get(maxVecCap * 2); got == big {
		t.Fatal("oversized vector must not be pooled")
	}
}

func TestPoolShardedConcurrent(t *testing.T) {
	p := NewPoolShards(8)
	var wg sync.WaitGroup
	const goroutines, iters, batch = 16, 500, 5
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hint := p.ShardHint()
			caps := []int{64, 128, 256, 100, 700}
			row := make([]*Vector, batch)
			for i := 0; i < iters; i++ {
				p.GetN(hint, row, caps)
				for _, v := range row {
					v.UseDense(32)[0] = 1
				}
				p.PutN(hint, row)
			}
		}()
	}
	wg.Wait()
	st := p.Stats()
	want := uint64(goroutines * iters * batch)
	if st.Gets != want || st.Puts != want {
		t.Fatalf("gets/puts = %d/%d, want %d", st.Gets, st.Puts, want)
	}
	if st.Hits+st.Allocs != st.Gets {
		t.Fatalf("gets (%d) != hits (%d) + allocs (%d)", st.Gets, st.Hits, st.Allocs)
	}
}

func TestFloorClassFor(t *testing.T) {
	for _, tc := range []struct{ cap, want int }{
		{0, 0}, {1, 0}, {64, 0}, {100, 0}, {127, 0}, {128, 1}, {255, 1}, {256, 2},
		{maxVecCap, nClasses - 1},
	} {
		if got := floorClassFor(tc.cap); got != tc.want {
			t.Fatalf("floorClassFor(%d) = %d, want %d", tc.cap, got, tc.want)
		}
	}
}

// benchmarkPoolParallel hammers batched get/put from all procs; run
// with -cpu 1,2,4,8 to see the global-mutex pool flatline while the
// sharded pool scales (§4.2.1).
func benchmarkPoolParallel(b *testing.B, p *Pool) {
	caps := []int{64, 256, 1024, 100}
	b.RunParallel(func(pb *testing.PB) {
		hint := p.ShardHint()
		row := make([]*Vector, len(caps))
		for pb.Next() {
			p.GetN(hint, row, caps)
			row[0].UseDense(32)[0] = 1
			p.PutN(hint, row)
		}
	})
}

func BenchmarkPoolParallelGlobal(b *testing.B)  { benchmarkPoolParallel(b, NewPoolShards(1)) }
func BenchmarkPoolParallelSharded(b *testing.B) { benchmarkPoolParallel(b, NewPoolShards(64)) }

func TestStringArenaTokens(t *testing.T) {
	v := New(0)
	v.AppendTokenBytes([]byte("alpha"))
	v.AppendTokenBytes([]byte("beta"))
	s := v.String()
	if !strings.Contains(s, "tokens[2]") || !strings.Contains(s, "alpha") || !strings.Contains(s, "beta") {
		t.Fatalf("String() must report arena-backed tokens: %q", s)
	}
	v2 := New(0)
	v2.SetTokens([]string{"a", "b", "c", "d"})
	if s2 := v2.String(); !strings.Contains(s2, "tokens[4]") || !strings.Contains(s2, "a,b,c") {
		t.Fatalf("String() slice form broken: %q", s2)
	}
}
