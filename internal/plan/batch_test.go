package plan

import (
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"pretzel/internal/ops"
	"pretzel/internal/store"
	"pretzel/internal/text"
	"pretzel/internal/vector"
)

// batchInputs builds n text inputs cycling through a few documents.
func batchInputs(n int) []*vector.Vector {
	docs := []string{
		"a nice product that works",
		"bad refund awful",
		"nice nice product",
		"product refund",
	}
	ins := make([]*vector.Vector, n)
	for i := range ins {
		ins[i] = vector.New(0)
		ins[i].SetText(docs[i%len(docs)])
	}
	return ins
}

// runPlanBatched drives a plan the way the scheduler does: one
// RunStageBatch per stage over the whole record row.
func runPlanBatched(t *testing.T, p *Plan, ec *Exec, ins, outs []*vector.Vector) []float32 {
	t.Helper()
	n := len(p.Stages)
	accs := make([]float32, len(ins))
	rows := make([][]*vector.Vector, n)
	for i, s := range p.Stages {
		row := make([]*vector.Vector, len(ins))
		if i == n-1 {
			copy(row, outs)
		} else {
			for r := range row {
				row[r] = vector.New(0)
			}
		}
		rows[i] = row
		insRows := ec.InsRows(len(ins), len(s.Inputs))
		for r := range ins {
			for c, src := range s.Inputs {
				if src == InputID {
					insRows[r][c] = ins[r]
				} else {
					insRows[r][c] = rows[src][r]
				}
			}
		}
		if err := RunStageBatch(s, ec, insRows, row, accs); err != nil {
			t.Fatalf("stage %d: %v", i, err)
		}
	}
	return accs
}

// TestRunStageBatchCounters: a batched stage event is ONE execution in
// the white-box counters, with every record accounted in Records.
func TestRunStageBatchCounters(t *testing.T) {
	pl := saMiniPlan(t)
	const nRec = 7
	ins := batchInputs(nRec)
	outs := make([]*vector.Vector, nRec)
	for r := range outs {
		outs[r] = vector.New(0)
	}
	ec := &Exec{Pool: vector.NewPool()}
	runPlanBatched(t, pl, ec, ins, outs)
	for i, s := range pl.Stages {
		st := s.Stats()
		if st.Execs != 1 {
			t.Fatalf("stage %d: %d executions for one batch event, want 1", i, st.Execs)
		}
		if st.Records != nRec {
			t.Fatalf("stage %d: records=%d, want %d", i, st.Records, nRec)
		}
		if st.TotalNanos == 0 {
			t.Fatalf("stage %d recorded no latency", i)
		}
	}
}

// TestRunStageBatchMaterialization: the batched cache protocol — probe
// all hashes, run the kernel only over misses, insert results — must
// serve repeats from the cache and stay equivalent to uncached runs.
func TestRunStageBatchMaterialization(t *testing.T) {
	cd, wd := saDicts(t)
	fk := &FeaturizeKernel{
		Char:    text.CharNgramConfig{MinN: 2, MaxN: 3, Dict: cd},
		Word:    text.WordNgramConfig{MaxN: 1, Dict: wd},
		CharDim: cd.Size(),
	}
	st := &Stage{ID: 42, Kern: fk, Materializable: true, Ops: []ops.Op{&ops.Tokenizer{}}}
	cache := store.NewMatCache(1 << 20)
	ec := &Exec{Pool: vector.NewPool(), Cache: cache}

	newBatch := func(docs ...string) ([][]*vector.Vector, []*vector.Vector) {
		insRows := make([][]*vector.Vector, len(docs))
		outs := make([]*vector.Vector, len(docs))
		for i, d := range docs {
			in := vector.New(0)
			in.SetText(d)
			insRows[i] = []*vector.Vector{in}
			outs[i] = vector.New(0)
		}
		return insRows, outs
	}

	// First batch: all records miss, results get inserted (the batch
	// repeats one document, so the duplicate is still computed — cache
	// insertion dedups).
	ins1, outs1 := newBatch("nice product", "bad refund", "nice product")
	if err := RunStageBatch(st, ec, ins1, outs1, nil); err != nil {
		t.Fatal(err)
	}
	if !outs1[0].Equal(outs1[2]) {
		t.Fatal("identical inputs must featurize identically")
	}
	if got := cache.Stats().Entries; got != 2 {
		t.Fatalf("entries=%d, want 2", got)
	}
	// Second batch: two hits, one new miss.
	ins2, outs2 := newBatch("bad refund", "product refund", "nice product")
	if err := RunStageBatch(st, ec, ins2, outs2, nil); err != nil {
		t.Fatal(err)
	}
	if st.Stats().CacheHits != 2 {
		t.Fatalf("cache hits=%d, want 2", st.Stats().CacheHits)
	}
	if !outs2[0].Equal(outs1[1]) || !outs2[2].Equal(outs1[0]) {
		t.Fatal("cache-served results differ from computed ones")
	}
	// Uncached reference for the fresh document.
	want := vector.New(0)
	if err := fk.Run(ec, ins2[1], want); err != nil {
		t.Fatal(err)
	}
	if !outs2[1].Equal(want) {
		t.Fatal("miss sub-batch result differs from direct kernel run")
	}
	// Third batch: everything hits, the kernel never runs.
	ins3, outs3 := newBatch("nice product", "bad refund", "product refund")
	if err := RunStageBatch(st, ec, ins3, outs3, nil); err != nil {
		t.Fatal(err)
	}
	if st.Stats().CacheHits != 5 {
		t.Fatalf("cache hits=%d, want 5", st.Stats().CacheHits)
	}
}

// TestRunStageBatchErrors: batch-shape violations and record failures
// surface as errors (and count once per failed event).
func TestRunStageBatchErrors(t *testing.T) {
	pl := saMiniPlan(t)
	st := pl.Stages[0]
	ec := &Exec{Pool: vector.NewPool()}
	out := vector.New(0)
	in := vector.New(0)
	in.SetText("x")
	if err := RunStageBatch(st, ec, [][]*vector.Vector{{in}}, []*vector.Vector{out, out}, []float32{0, 0}); err == nil {
		t.Fatal("ins/outs mismatch must error")
	}
	if err := RunStageBatch(st, ec, [][]*vector.Vector{{in}}, []*vector.Vector{out}, nil); err == nil {
		t.Fatal("UsesAcc stage without accs must error")
	}
	bad := vector.New(0)
	bad.SetDense([]float32{1}) // head expects text
	err := RunStageBatch(st, ec, [][]*vector.Vector{{bad}}, []*vector.Vector{out}, []float32{0})
	if err == nil || !strings.Contains(err.Error(), "sa-head") {
		t.Fatalf("err=%v", err)
	}
	if st.Stats().Errs != 1 {
		t.Fatalf("errs=%d, want 1", st.Stats().Errs)
	}
}

// TestRunStageBatchSteadyStateAllocs: the batch path (input-row
// assembly included) must be allocation-free in steady state — the
// per-stage-event row allocation of the old scheduler loop is gone.
func TestRunStageBatchSteadyStateAllocs(t *testing.T) {
	pl := saMiniPlan(t)
	const nRec = 16
	ins := batchInputs(nRec)
	outs := make([]*vector.Vector, nRec)
	rows := make([]*vector.Vector, nRec)
	for r := range outs {
		outs[r] = vector.New(0)
		rows[r] = vector.New(0)
	}
	accs := make([]float32, nRec)
	ec := &Exec{Pool: vector.NewPool()}
	runEvent := func() {
		for i, s := range pl.Stages {
			row := rows
			if i == len(pl.Stages)-1 {
				row = outs
			}
			insRows := ec.InsRows(nRec, len(s.Inputs))
			for r := range ins {
				for c, src := range s.Inputs {
					if src == InputID {
						insRows[r][c] = ins[r]
					} else {
						insRows[r][c] = rows[r]
					}
				}
			}
			if err := RunStageBatch(s, ec, insRows, row, accs); err != nil {
				t.Fatal(err)
			}
		}
		for r := range accs {
			accs[r] = 0
		}
	}
	for i := 0; i < 10; i++ {
		runEvent() // warm scratch, arenas and token rings
	}
	if allocs := testing.AllocsPerRun(100, runEvent); allocs > 0 {
		t.Fatalf("batched stage events allocate %v per run", allocs)
	}
}

// TestHashInputMatchesReferenceFNV: the chunk-buffered HashInput must
// produce exactly the FNV-1a value of the tagged byte encoding.
func TestHashInputMatchesReferenceFNV(t *testing.T) {
	refHash := func(v *vector.Vector) uint64 {
		h := fnv.New64a()
		switch v.Kind {
		case vector.KindText:
			h.Write([]byte{1})
			h.Write([]byte(v.Text))
		case vector.KindTokens:
			h.Write([]byte{2})
			for i := 0; i < v.NumTokens(); i++ {
				h.Write(v.TokenAt(i))
				h.Write([]byte{0})
			}
		case vector.KindDense:
			h.Write([]byte{3})
			for _, x := range v.Dense {
				u := f32bitsRef(x)
				h.Write([]byte{byte(u), byte(u >> 8), byte(u >> 16), byte(u >> 24)})
			}
		case vector.KindSparse:
			h.Write([]byte{4})
			for i, ix := range v.Idx {
				u := uint32(ix)
				w := f32bitsRef(v.Val[i])
				h.Write([]byte{
					byte(u), byte(u >> 8), byte(u >> 16), byte(u >> 24),
					byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24),
				})
			}
		}
		return h.Sum64()
	}
	vs := make([]*vector.Vector, 0, 8)
	txt := vector.New(0)
	txt.SetText("a nice product")
	vs = append(vs, txt)
	toks := vector.New(0)
	toks.AppendTokenBytes([]byte("nice"))
	toks.AppendTokenBytes([]byte("product"))
	vs = append(vs, toks)
	for _, n := range []int{0, 3, 64, 65, 200} { // around the chunk boundary
		d := vector.New(0)
		dense := make([]float32, n)
		for i := range dense {
			dense[i] = float32(i) * 0.25
		}
		d.SetDense(dense)
		vs = append(vs, d)
		sp := vector.New(0)
		sp.UseSparse(4 * n)
		for i := 0; i < n; i++ {
			sp.AppendSparse(int32(3*i), float32(i)+0.5)
		}
		vs = append(vs, sp)
	}
	for i, v := range vs {
		if got, want := HashInput(v), refHash(v); got != want {
			t.Fatalf("vector %d (%s): HashInput=%x, reference fnv=%x", i, v.Kind, got, want)
		}
	}
}

func f32bitsRef(f float32) uint32 { return math.Float32bits(f) }
