package vector

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindInvalid: "invalid",
		KindText:    "text",
		KindTokens:  "tokens",
		KindDense:   "dense",
		KindSparse:  "sparse",
		Kind(99):    "invalid",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestSetAndReset(t *testing.T) {
	v := New(8)
	v.SetText("hello")
	if v.Kind != KindText || v.Text != "hello" {
		t.Fatalf("SetText: got %v", v)
	}
	v.SetTokens([]string{"a", "b"})
	if v.Kind != KindTokens || len(v.Tokens) != 2 {
		t.Fatalf("SetTokens: got %v", v)
	}
	v.SetDense([]float32{1, 2, 3})
	if v.Kind != KindDense || v.Dim != 3 || v.Dense[2] != 3 {
		t.Fatalf("SetDense: got %v", v)
	}
	v.Reset()
	if v.Kind != KindInvalid || len(v.Dense) != 0 || v.Dim != 0 {
		t.Fatalf("Reset: got %v", v)
	}
}

func TestUseDenseReusesBuffer(t *testing.T) {
	v := New(16)
	d := v.UseDense(10)
	for i := range d {
		d[i] = float32(i)
	}
	ptr := &v.Dense[0]
	d2 := v.UseDense(8)
	if &v.Dense[0] != ptr {
		t.Fatal("UseDense reallocated despite sufficient capacity")
	}
	for i, x := range d2 {
		if x != 0 {
			t.Fatalf("UseDense did not zero: d2[%d]=%v", i, x)
		}
	}
	// Growing beyond capacity must still work.
	d3 := v.UseDense(64)
	if len(d3) != 64 {
		t.Fatalf("UseDense(64) len=%d", len(d3))
	}
}

func TestSparseAppendSortCoalesce(t *testing.T) {
	v := New(0)
	v.UseSparse(100)
	v.AppendSparse(5, 1)
	v.AppendSparse(2, 2)
	v.AppendSparse(5, 3)
	v.AppendSparse(9, 4)
	v.SortSparse()
	if len(v.Idx) != 3 {
		t.Fatalf("nnz after coalesce = %d, want 3", len(v.Idx))
	}
	wantIdx := []int32{2, 5, 9}
	wantVal := []float32{2, 4, 4}
	for i := range wantIdx {
		if v.Idx[i] != wantIdx[i] || v.Val[i] != wantVal[i] {
			t.Fatalf("entry %d = (%d,%v), want (%d,%v)", i, v.Idx[i], v.Val[i], wantIdx[i], wantVal[i])
		}
	}
}

func TestAt(t *testing.T) {
	v := New(0)
	v.SetDense([]float32{10, 20, 30})
	if v.At(1) != 20 || v.At(-1) != 0 || v.At(5) != 0 {
		t.Fatal("dense At")
	}
	s := New(0)
	s.UseSparse(10)
	s.AppendSparse(3, 7)
	s.AppendSparse(8, 9)
	if s.At(3) != 7 || s.At(8) != 9 || s.At(4) != 0 || s.At(0) != 0 {
		t.Fatal("sparse At")
	}
	txt := New(0)
	txt.SetText("x")
	if txt.At(0) != 0 {
		t.Fatal("text At should be 0")
	}
}

func TestToDenseAndL2(t *testing.T) {
	s := New(0)
	s.UseSparse(5)
	s.AppendSparse(1, 3)
	s.AppendSparse(4, 4)
	buf := make([]float32, 5)
	d := s.ToDense(buf)
	want := []float32{0, 3, 0, 0, 4}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("ToDense[%d]=%v want %v", i, d[i], want[i])
		}
	}
	if got := s.L2Norm(); math.Abs(float64(got)-5) > 1e-6 {
		t.Fatalf("L2Norm=%v want 5", got)
	}
	dv := New(0)
	dv.SetDense([]float32{3, 4})
	if got := dv.L2Norm(); math.Abs(float64(got)-5) > 1e-6 {
		t.Fatalf("dense L2Norm=%v want 5", got)
	}
}

func TestCopyCloneEqual(t *testing.T) {
	v := New(0)
	v.UseSparse(50)
	v.AppendSparse(1, 1)
	v.AppendSparse(10, 2)
	c := v.Clone()
	if !v.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Val[0] = 99
	if v.Equal(c) {
		t.Fatal("mutating clone affected original equality")
	}
	if v.Val[0] != 1 {
		t.Fatal("clone aliased original buffers")
	}
	var dst Vector
	dst.CopyFrom(v)
	if !dst.Equal(v) {
		t.Fatal("CopyFrom not equal")
	}
}

func TestEqualKindMismatch(t *testing.T) {
	a, b := New(0), New(0)
	a.SetText("x")
	b.SetDense([]float32{1})
	if a.Equal(b) {
		t.Fatal("different kinds must not be equal")
	}
	b.SetText("y")
	if a.Equal(b) {
		t.Fatal("different text must not be equal")
	}
	b.SetText("x")
	if !a.Equal(b) {
		t.Fatal("same text must be equal")
	}
}

func TestScale(t *testing.T) {
	v := New(0)
	v.SetDense([]float32{1, 2})
	v.Scale(2)
	if v.Dense[0] != 2 || v.Dense[1] != 4 {
		t.Fatal("dense scale")
	}
	s := New(0)
	s.UseSparse(4)
	s.AppendSparse(0, 3)
	s.Scale(0.5)
	if s.Val[0] != 1.5 {
		t.Fatal("sparse scale")
	}
}

// getOne takes one vector of capacity capHint from shard 0.
func getOne(p *Pool, capHint int) *Vector {
	row := []*Vector{nil}
	p.GetN(0, row, []int{capHint})
	return row[0]
}

func TestPoolReuse(t *testing.T) {
	p := NewPool()
	v := getOne(p, 100)
	if cap(v.Dense) < 100 {
		t.Fatalf("GetN(100) cap=%d", cap(v.Dense))
	}
	v.UseDense(100)
	p.PutN(0, []*Vector{v})
	v2 := getOne(p, 80)
	if v2 != v {
		t.Fatal("pool did not reuse the returned vector")
	}
	if v2.Kind != KindInvalid {
		t.Fatal("pooled vector not reset")
	}
	st := p.Stats()
	if st.Gets != 2 || st.Hits != 1 || st.Allocs != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPoolOversized(t *testing.T) {
	p := NewPool()
	v := getOne(p, maxVecCap*2) // beyond largest class
	if cap(v.Dense) < maxVecCap*2 {
		t.Fatal("oversized get did not allocate enough")
	}
	p.PutN(0, []*Vector{v}) // must not panic; dropped
	if v2 := getOne(p, maxVecCap*2); v2 == v {
		t.Fatal("oversized vector should not be pooled")
	}
}

func TestClassFor(t *testing.T) {
	if classFor(0) != 0 || classFor(64) != 0 {
		t.Fatal("classFor small")
	}
	if classFor(65) != 1 {
		t.Fatal("classFor(65)")
	}
	if classFor(maxVecCap) != nClasses-1 {
		t.Fatal("classFor(max)")
	}
	if classFor(maxVecCap+1) != -1 {
		t.Fatal("classFor(over max)")
	}
}

// Property: SortSparse yields strictly increasing indices and preserves the
// per-coordinate sum.
func TestSortSparseProperty(t *testing.T) {
	f := func(pairs []uint16) bool {
		v := New(0)
		v.UseSparse(1 << 16)
		sums := map[int32]float32{}
		for i, p := range pairs {
			idx := int32(p % 1024)
			val := float32(i%7) + 1
			v.AppendSparse(idx, val)
			sums[idx] += val
		}
		v.SortSparse()
		for i := 1; i < len(v.Idx); i++ {
			if v.Idx[i] <= v.Idx[i-1] {
				return false
			}
		}
		if len(v.Idx) != len(sums) {
			return false
		}
		for i := 0; i < len(v.Idx); i++ {
			if math.Abs(float64(sums[v.Idx[i]]-v.Val[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: ToDense(sparse) then At agree for every coordinate.
func TestSparseDenseAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 50; iter++ {
		dim := 1 + rng.Intn(200)
		v := New(0)
		v.UseSparse(dim)
		for k := 0; k < rng.Intn(dim+1); k++ {
			v.AppendSparse(int32(rng.Intn(dim)), rng.Float32())
		}
		v.SortSparse()
		buf := make([]float32, dim)
		d := v.ToDense(buf)
		for i := 0; i < dim; i++ {
			if d[i] != v.At(i) {
				t.Fatalf("iter %d: coord %d dense=%v at=%v", iter, i, d[i], v.At(i))
			}
		}
	}
}

func TestPoolConcurrent(t *testing.T) {
	p := NewPool()
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				row := []*Vector{nil}
				p.GetNUniform(0, row, 128)
				row[0].UseDense(100)[0] = 1
				p.PutN(0, row)
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	st := p.Stats()
	if st.Gets != 8000 || st.Puts != 8000 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMemBytes(t *testing.T) {
	v := New(16)
	if v.MemBytes() < 64 {
		t.Fatalf("MemBytes too small: %d", v.MemBytes())
	}
	v.SetTokens([]string{"abc", "de"})
	if v.MemBytes() < 64+3+2 {
		t.Fatalf("MemBytes missing tokens: %d", v.MemBytes())
	}
}

func TestString(t *testing.T) {
	v := New(0)
	for _, setup := range []func(){
		func() { v.SetText("t") },
		func() { v.SetTokens([]string{"a", "b", "c", "d"}) },
		func() { v.SetDense([]float32{1}) },
		func() { v.UseSparse(3) },
		func() { v.Reset() },
	} {
		setup()
		if v.String() == "" {
			t.Fatal("empty String()")
		}
	}
}
