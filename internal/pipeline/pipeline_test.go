package pipeline

import (
	"archive/zip"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"

	"pretzel/internal/ml"
	"pretzel/internal/ops"
	"pretzel/internal/schema"
	"pretzel/internal/text"
	"pretzel/internal/vector"
)

// buildSA constructs a small sentiment-analysis pipeline:
// Tokenizer -> {CharNgram, WordNgram} -> Concat -> LinearPredictor.
func buildSA(t *testing.T) *Pipeline {
	t.Helper()
	corpus := []string{"nice product works great", "terrible broken refund bad"}
	cb := text.NewDictBuilder()
	wb := text.NewDictBuilder()
	for _, doc := range corpus {
		toks := text.Tokenize(doc, nil)
		for _, tok := range toks {
			text.ObserveCharNgrams(cb, []byte(tok), 2, 3)
		}
		text.ObserveWordNgrams(wb, toks, 2, nil)
	}
	cd, wd := cb.Build(0), wb.Build(0)
	weights := make([]float32, cd.Size()+wd.Size())
	if ix := wd.Lookup("nice"); ix >= 0 {
		weights[cd.Size()+int(ix)] = 2
	}
	if ix := wd.Lookup("bad"); ix >= 0 {
		weights[cd.Size()+int(ix)] = -2
	}
	return &Pipeline{
		Name:        "sa-test",
		InputSchema: schema.Text("Text"),
		Stats:       Stats{MaxVectorSize: cd.Size() + wd.Size(), SparseOutput: true},
		Nodes: []Node{
			{Op: &ops.Tokenizer{}, Inputs: []int{InputID}},
			{Op: &ops.CharNgram{MinN: 2, MaxN: 3, Dict: cd}, Inputs: []int{0}},
			{Op: &ops.WordNgram{MaxN: 2, Dict: wd}, Inputs: []int{0}},
			{Op: &ops.Concat{Dims: []int{cd.Size(), wd.Size()}}, Inputs: []int{1, 2}},
			{Op: &ops.LinearPredictor{Model: &ml.LinearModel{Kind: ml.LogisticRegression, Weights: weights}}, Inputs: []int{3}},
		},
	}
}

func TestValidate(t *testing.T) {
	p := buildSA(t)
	out, err := p.Validate()
	if err != nil {
		t.Fatal(err)
	}
	c, err := out.Single()
	if err != nil {
		t.Fatal(err)
	}
	if c.Kind != schema.ColScalar {
		t.Fatalf("output kind %v", c.Kind)
	}
}

func TestValidateErrors(t *testing.T) {
	empty := &Pipeline{Name: "e", InputSchema: schema.Text("t")}
	if _, err := empty.Validate(); err == nil {
		t.Fatal("empty pipeline must fail validation")
	}
	noSchema := buildSA(t)
	noSchema.InputSchema = nil
	if _, err := noSchema.Validate(); err == nil {
		t.Fatal("missing input schema must fail")
	}
	// Kind mismatch: tokenizer fed a vector input.
	bad := &Pipeline{
		Name:        "bad",
		InputSchema: schema.Vector("v", 3, false),
		Nodes:       []Node{{Op: &ops.Tokenizer{}, Inputs: []int{InputID}}},
	}
	if _, err := bad.Validate(); err == nil {
		t.Fatal("kind mismatch must fail")
	}
	// Forward reference.
	fwd := buildSA(t)
	fwd.Nodes[0].Inputs = []int{3}
	if _, err := fwd.Validate(); err == nil {
		t.Fatal("forward reference must fail")
	}
}

func TestRunSA(t *testing.T) {
	p := buildSA(t)
	in := vector.New(0)
	out := vector.New(0)

	in.SetText("a nice thing")
	if err := p.Run(in, out, nil); err != nil {
		t.Fatal(err)
	}
	pos := out.Dense[0]
	in.SetText("a bad thing")
	if err := p.Run(in, out, nil); err != nil {
		t.Fatal(err)
	}
	neg := out.Dense[0]
	if pos <= 0.5 || neg >= 0.5 {
		t.Fatalf("sentiment scores: pos=%v neg=%v", pos, neg)
	}
}

func TestRunWithScratch(t *testing.T) {
	p := buildSA(t)
	scratch := make([]*vector.Vector, len(p.Nodes))
	for i := range scratch {
		scratch[i] = vector.New(64)
	}
	in, out := vector.New(0), vector.New(0)
	in.SetText("nice nice nice")
	if err := p.Run(in, out, scratch); err != nil {
		t.Fatal(err)
	}
	first := out.Dense[0]
	// Re-running with the same scratch must give the same answer.
	if err := p.Run(in, out, scratch); err != nil {
		t.Fatal(err)
	}
	if out.Dense[0] != first {
		t.Fatalf("scratch reuse changed result: %v vs %v", out.Dense[0], first)
	}
}

func TestRunErrorPropagates(t *testing.T) {
	p := buildSA(t)
	in, out := vector.New(0), vector.New(0)
	in.SetDense([]float32{1}) // wrong input kind
	err := p.Run(in, out, nil)
	if err == nil {
		t.Fatal("wrong input kind must error")
	}
	if !strings.Contains(err.Error(), "Tokenizer") {
		t.Fatalf("error should name the failing operator: %v", err)
	}
}

// content concatenates every node's kind and its parameters' canonical
// content bytes — what the Object Store's digests identify.
func content(t *testing.T, p *Pipeline) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, n := range p.Nodes {
		b.WriteString(n.Op.Info().Kind + "\x00")
		for _, q := range n.Op.Params() {
			if err := q.WriteContent(&b); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b.Bytes()
}

func TestExportImportRoundTrip(t *testing.T) {
	p := buildSA(t)
	b, err := p.ExportBytes()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ImportBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != p.Name || len(got.Nodes) != len(p.Nodes) {
		t.Fatalf("structure lost: %s %d nodes", got.Name, len(got.Nodes))
	}
	if !bytes.Equal(content(t, got), content(t, p)) {
		t.Fatal("content changed over export/import")
	}
	if got.Stats != p.Stats {
		t.Fatalf("stats lost: %+v", got.Stats)
	}
	// Same predictions.
	in, out1, out2 := vector.New(0), vector.New(0), vector.New(0)
	in.SetText("nice bad nice")
	if err := p.Run(in, out1, nil); err != nil {
		t.Fatal(err)
	}
	if err := got.Run(in, out2, nil); err != nil {
		t.Fatal(err)
	}
	if out1.Dense[0] != out2.Dense[0] {
		t.Fatalf("prediction changed: %v vs %v", out1.Dense[0], out2.Dense[0])
	}
}

func TestImportErrors(t *testing.T) {
	if _, err := ImportBytes([]byte("not a zip")); err == nil {
		t.Fatal("garbage must fail")
	}
	// Valid zip, no manifest.
	var buf bytes.Buffer
	p := buildSA(t)
	_ = p // build a zip without manifest by hand
	zb, _ := p.ExportBytes()
	_ = zb
	buf.Reset()
	if _, err := ImportBytes(buf.Bytes()); err == nil {
		t.Fatal("empty must fail")
	}
}

// TestImportRejectsOversizedArchive: an entry whose header claims more
// than maxInflatedBytes fails the import before anything is inflated.
func TestImportRejectsOversizedArchive(t *testing.T) {
	src, err := buildSA(t).ExportBytes()
	if err != nil {
		t.Fatal(err)
	}
	zr, err := zip.NewReader(bytes.NewReader(src), int64(len(src)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	for _, f := range zr.File {
		raw, err := f.OpenRaw()
		if err != nil {
			t.Fatal(err)
		}
		fh := f.FileHeader
		if strings.HasSuffix(f.Name, "/params.bin") {
			fh.UncompressedSize64 = maxInflatedBytes + 1
		}
		w, err := zw.CreateRaw(&fh)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(w, raw); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = ImportBytes(buf.Bytes())
	runtime.ReadMemStats(&after)
	if !errors.Is(err, errTooLarge) {
		t.Fatalf("import error = %v, want %v", err, errTooLarge)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("rejecting the archive allocated %d bytes", n)
	}
}

// TestImportRejectsDuplicateTerms: a dictionary whose last term repeats
// its first fails the import, so an upload of it is a bad model.
func TestImportRejectsDuplicateTerms(t *testing.T) {
	p := buildSA(t)
	wd := p.Nodes[2].Op.(*ops.WordNgram).Dict
	var dict bytes.Buffer
	if _, err := wd.WriteTo(&dict); err != nil {
		t.Fatal(err)
	}
	// The same term count, with the last term replaced by the first.
	bad := binary.LittleEndian.AppendUint64(nil, uint64(wd.Size()))
	for ix := int32(0); int(ix) < wd.Size(); ix++ {
		term := wd.Term(ix)
		if int(ix) == wd.Size()-1 {
			term = wd.Term(0)
		}
		bad = binary.LittleEndian.AppendUint32(bad, uint32(len(term)))
		bad = append(bad, term...)
	}

	src, err := p.ExportBytes()
	if err != nil {
		t.Fatal(err)
	}
	zr, err := zip.NewReader(bytes.NewReader(src), int64(len(src)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	for _, f := range zr.File {
		rc, err := f.Open()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(f.Name, "_WordNgram/params.bin") {
			frame, ok := bytes.CutSuffix(raw, dict.Bytes())
			if !ok {
				t.Fatal("WordNgram params do not end with its dictionary")
			}
			raw = append(frame, bad...)
		}
		w, err := zw.Create(f.Name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(raw); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = ImportBytes(buf.Bytes())
	if err == nil || !strings.Contains(err.Error(), "duplicate term") {
		t.Fatalf("import error = %v, want a duplicate-term error", err)
	}
}

// buildHash constructs Tokenizer -> HashNgram(bits) -> LinearPredictor.
func buildHash(bits int) *Pipeline {
	return &Pipeline{
		Name:        "hash-test",
		InputSchema: schema.Text("Text"),
		Nodes: []Node{
			{Op: &ops.Tokenizer{}, Inputs: []int{InputID}},
			{Op: &ops.HashNgram{Bits: bits, Word: true}, Inputs: []int{0}},
			{Op: &ops.LinearPredictor{Model: &ml.LinearModel{Kind: ml.LogisticRegression, Weights: make([]float32, 1)}}, Inputs: []int{1}},
		},
	}
}

// importNoPanic exports p and imports it back, turning a panic into a
// test failure.
func importNoPanic(t *testing.T, p *Pipeline) (err error) {
	t.Helper()
	src, err := p.ExportBytes()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("import panicked: %v", r)
		}
	}()
	_, err = ImportBytes(src)
	return err
}

// TestImportRejectsBadNgramConfigs: an n-gram config that would panic at
// import (a negative shift in HashNgram.Dim) or on every predict (a
// negative char gram length), or overflow int32 buckets, fails the
// import; the edge configs that work still import.
func TestImportRejectsBadNgramConfigs(t *testing.T) {
	charSA := func(minN, maxN int) *Pipeline {
		p := buildSA(t)
		c := p.Nodes[1].Op.(*ops.CharNgram)
		c.MinN, c.MaxN = minN, maxN
		return p
	}
	for _, tc := range []struct {
		name string
		p    *Pipeline
		msg  string // "" when the import must succeed
	}{
		{"char MinN -2", charSA(-2, 3), "MinN -2 is negative"},
		{"hash Bits -1", buildHash(-1), "Bits -1 outside"},
		{"hash Bits 32", buildHash(32), "Bits 32 outside"},
		{"char MinN 0", charSA(0, 3), ""},
		{"char MaxN < MinN", charSA(3, 2), ""},
		{"hash Bits 0", buildHash(0), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := importNoPanic(t, tc.p)
			switch {
			case tc.msg == "" && err != nil:
				t.Fatalf("import failed: %v", err)
			case tc.msg != "" && (err == nil || !strings.Contains(err.Error(), tc.msg)):
				t.Fatalf("import error = %v, want %q", err, tc.msg)
			}
		})
	}
}

func TestMemBytesAndContent(t *testing.T) {
	p := buildSA(t)
	if p.MemBytes() < 1000 {
		t.Fatalf("membytes too small: %d", p.MemBytes())
	}
	q := buildSA(t)
	if !bytes.Equal(content(t, p), content(t, q)) {
		t.Fatal("identical pipelines must share content")
	}
	q.Nodes = q.Nodes[:len(q.Nodes)-1]
	if bytes.Equal(content(t, p), content(t, q)) {
		t.Fatal("truncated pipeline must differ")
	}
}

func TestExportedFileLayout(t *testing.T) {
	p := buildSA(t)
	b, err := p.ExportBytes()
	if err != nil {
		t.Fatal(err)
	}
	// The archive must contain one directory per operator, ML.Net style.
	got, err := ImportBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []string{"Tokenizer", "CharNgram", "WordNgram", "Concat", "LinearPredictor"}
	for i, k := range kinds {
		if got.Nodes[i].Op.Info().Kind != k {
			t.Fatalf("node %d kind %s, want %s", i, got.Nodes[i].Op.Info().Kind, k)
		}
	}
}
