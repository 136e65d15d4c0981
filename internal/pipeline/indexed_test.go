package pipeline

import (
	"archive/zip"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"

	"pretzel/internal/ops"
	"pretzel/internal/store"
)

// internAll does for an imported pipeline what oven.Compile does with an
// Object Store: intern every parameter, rewire an operator that does not
// hold the canonical instances yet, and record each node's raw key. It
// returns the interned references for release.
func internAll(t *testing.T, s *store.ObjectStore, p *Pipeline) []ops.Param {
	t.Helper()
	var refs []ops.Param
	for _, n := range p.Nodes {
		ps := n.Op.Params()
		if len(ps) == 0 {
			continue
		}
		shared := make([]ops.Param, len(ps))
		canonical := true
		for k, q := range ps {
			shared[k] = s.Intern(q)
			canonical = canonical && shared[k] == q
		}
		refs = append(refs, shared...)
		if !canonical {
			if err := n.Op.SetParams(shared); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, n := range p.Nodes {
		if n.Raw != nil {
			s.RecordRaw(*n.Raw, n.Op)
		}
	}
	return refs
}

// paramOps counts the nodes of p whose operator carries parameters.
func paramOps(p *Pipeline) int {
	n := 0
	for _, node := range p.Nodes {
		if len(node.Op.Params()) > 0 {
			n++
		}
	}
	return n
}

// rewrite copies the archive src entry by entry, as stored, letting edit
// change each entry's header before it is written.
func rewrite(t *testing.T, src []byte, edit func(fh *zip.FileHeader)) []byte {
	t.Helper()
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
		edit(&fh)
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
	return buf.Bytes()
}

// indexedSA returns the exported SA pipeline and a store whose raw index
// holds its operators.
func indexedSA(t *testing.T) ([]byte, *store.ObjectStore, *Pipeline) {
	t.Helper()
	b, err := buildSA(t).ExportBytes()
	if err != nil {
		t.Fatal(err)
	}
	s := store.New()
	p, err := ImportIndexed(b, s)
	if err != nil {
		t.Fatal(err)
	}
	internAll(t, s, p)
	if st := s.Stats(); st.RawKeys != paramOps(p) || st.RawMisses != uint64(paramOps(p)) || st.RawHits != 0 {
		t.Fatalf("after the first import: %+v, want %d raw keys and misses", st, paramOps(p))
	}
	return b, s, p
}

// TestImportIndexedHitTakesCanonicalOps: a second import of the same
// archive takes every parameter-carrying operator from the index, so
// nothing is parsed or digested, and the answers are those of a plain
// import.
func TestImportIndexedHitTakesCanonicalOps(t *testing.T) {
	b, s, first := indexedSA(t)
	before := s.Stats()
	p, err := ImportIndexed(b, s)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if got := st.RawHits - before.RawHits; got != uint64(paramOps(p)) {
		t.Fatalf("raw hits = %d, want %d", got, paramOps(p))
	}
	if st.RawMisses != before.RawMisses || st.Digests != before.Digests {
		t.Fatalf("a hit parsed or digested: before %+v after %+v", before, st)
	}
	for i, n := range p.Nodes {
		if len(n.Op.Params()) > 0 && n.Op != first.Nodes[i].Op {
			t.Fatalf("node %d: a hit must return the canonical operator", i)
		}
	}
	plain, err := ImportBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(content(t, p), content(t, plain)) {
		t.Fatal("indexed import differs from the plain one")
	}
}

// TestImportIndexedForgedCRC: an archive that carries an indexed entry's
// bytes under a forged CRC-32 fails the indexed import exactly as it
// fails the plain one, whether the CRC is forged in the headers or only
// in the data descriptor, and in an archive without data descriptors.
func TestImportIndexedForgedCRC(t *testing.T) {
	b, s, _ := indexedSA(t)
	const target = "_CharNgram/params.bin"
	headers := rewrite(t, b, func(fh *zip.FileHeader) {
		if strings.HasSuffix(fh.Name, target) {
			fh.CRC32 ^= 1
		}
	})
	// Same headers, but the data descriptor after the entry says
	// otherwise.
	descriptor := rewrite(t, b, func(*zip.FileHeader) {})
	zr, err := zip.NewReader(bytes.NewReader(descriptor), int64(len(descriptor)))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range zr.File {
		if !strings.HasSuffix(f.Name, target) {
			continue
		}
		if f.Flags&0x8 == 0 {
			t.Fatal("zip.Writer wrote no data descriptor")
		}
		off, err := f.DataOffset()
		if err != nil {
			t.Fatal(err)
		}
		at := off + int64(f.CompressedSize64)
		if binary.LittleEndian.Uint32(descriptor[at:]) != 0x08074b50 {
			t.Fatal("descriptor without signature")
		}
		descriptor[at+4] ^= 1
	}
	for name, forged := range map[string][]byte{"headers": headers, "descriptor": descriptor} {
		_, plainErr := ImportBytes(forged)
		if !errors.Is(plainErr, zip.ErrChecksum) {
			t.Fatalf("%s: plain import error = %v, want a checksum error", name, plainErr)
		}
		before := s.Stats()
		_, err := ImportIndexed(forged, s)
		if err == nil || err.Error() != plainErr.Error() {
			t.Fatalf("%s: indexed import error = %v, want %v", name, err, plainErr)
		}
		// The key covers the header CRC and the descriptor both, so
		// either forgery is another key: it misses and is read in full.
		if st := s.Stats(); st.RawHits != before.RawHits {
			t.Fatalf("%s: a forged entry hit the raw index", name)
		}
	}

	// Without a data descriptor the CRC-32 is in the headers only. Index
	// such an archive, then import its twin with a forged CRC.
	bare := rewrite(t, b, func(fh *zip.FileHeader) { fh.Flags &^= 0x8 })
	p, err := ImportIndexed(bare, s)
	if err != nil {
		t.Fatal(err)
	}
	internAll(t, s, p)
	forged := rewrite(t, bare, func(fh *zip.FileHeader) {
		if strings.HasSuffix(fh.Name, target) {
			fh.CRC32 ^= 1
		}
	})
	_, plainErr := ImportBytes(forged)
	if !errors.Is(plainErr, zip.ErrChecksum) {
		t.Fatalf("no descriptor: plain import error = %v, want a checksum error", plainErr)
	}
	before := s.Stats()
	if _, err := ImportIndexed(forged, s); err == nil || err.Error() != plainErr.Error() {
		t.Fatalf("no descriptor: indexed import error = %v, want %v", err, plainErr)
	}
	if st := s.Stats(); st.RawHits != before.RawHits {
		t.Fatal("no descriptor: a forged entry hit the raw index")
	}
}

// TestImportIndexedKindSwapMisses: the same bytes under another
// manifest kind are another key: the import parses them as that kind,
// and accepts or rejects them as the plain import does.
func TestImportIndexedKindSwapMisses(t *testing.T) {
	b, s, _ := indexedSA(t)
	zr, err := zip.NewReader(bytes.NewReader(b), int64(len(b)))
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
		if f.Name == "manifest.json" {
			var m manifest
			if err := json.Unmarshal(raw, &m); err != nil {
				t.Fatal(err)
			}
			for i := range m.Nodes {
				if m.Nodes[i].Kind == "CharNgram" {
					m.Nodes[i].Kind = "WordNgram"
				}
			}
			if raw, err = json.Marshal(m); err != nil {
				t.Fatal(err)
			}
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
	swapped := buf.Bytes()

	before := s.Stats()
	plain, plainErr := ImportBytes(swapped)
	p, err := ImportIndexed(swapped, s)
	if (err == nil) != (plainErr == nil) || (err != nil && err.Error() != plainErr.Error()) {
		t.Fatalf("indexed import error = %v, plain %v", err, plainErr)
	}
	if st := s.Stats(); st.RawMisses-before.RawMisses != 1 {
		t.Fatalf("the swapped node must miss once: before %+v after %+v", before, st)
	}
	if err == nil && !bytes.Equal(content(t, p), content(t, plain)) {
		t.Fatal("indexed import differs from the plain one")
	}
}

// TestImportIndexedStoredAndDeflated: a stored and a deflated copy of
// one parameter are two raw keys, but one canonical parameter, found
// through DigestOf.
func TestImportIndexedStoredAndDeflated(t *testing.T) {
	b, s, first := indexedSA(t)
	zr, err := zip.NewReader(bytes.NewReader(b), int64(len(b)))
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
		w, err := zw.CreateHeader(&zip.FileHeader{Name: f.Name, Method: zip.Store})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(w, rc); err != nil {
			t.Fatal(err)
		}
		rc.Close()
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	before := s.Stats()
	p, err := ImportIndexed(buf.Bytes(), s)
	if err != nil {
		t.Fatal(err)
	}
	n := paramOps(p)
	if st := s.Stats(); st.RawHits != before.RawHits || st.RawMisses-before.RawMisses != uint64(n) {
		t.Fatalf("stored copies must miss: before %+v after %+v", before, st)
	}
	refs := internAll(t, s, p)
	st := s.Stats()
	if st.Unique != before.Unique {
		t.Fatalf("unique params %d, want %d: stored copies must dedup by content", st.Unique, before.Unique)
	}
	if st.RawKeys != before.RawKeys+n {
		t.Fatalf("raw keys %d, want %d", st.RawKeys, before.RawKeys+n)
	}
	if st.Digests-before.Digests != uint64(n) {
		t.Fatalf("digests %d, want one per parsed parameter (%d)", st.Digests-before.Digests, n)
	}
	for i, node := range p.Nodes {
		for k, q := range node.Op.Params() {
			if q != first.Nodes[i].Op.Params()[k] {
				t.Fatalf("node %d param %d is not the canonical instance", i, k)
			}
		}
	}
	// Releasing every reference drops both keys of each parameter.
	for _, q := range append(refs, allParams(first)...) {
		s.Release(q)
	}
	if st := s.Stats(); st.Unique != 0 || st.RawKeys != 0 {
		t.Fatalf("store not drained: %+v", st)
	}
}

// allParams lists the parameters of p, one reference each.
func allParams(p *Pipeline) []ops.Param {
	var ps []ops.Param
	for _, n := range p.Nodes {
		ps = append(ps, n.Op.Params()...)
	}
	return ps
}

// TestManifestNameOpensNoParams: ManifestName reads manifest.json alone.
// An archive whose every params.bin carries a bad CRC-32 still yields
// its name there, while a full import of it fails the checksum.
func TestManifestNameOpensNoParams(t *testing.T) {
	p := buildSA(t)
	b, err := p.ExportBytes()
	if err != nil {
		t.Fatal(err)
	}
	corrupt := rewrite(t, b, func(fh *zip.FileHeader) {
		if strings.HasSuffix(fh.Name, "/params.bin") {
			fh.CRC32 ^= 1
		}
	})
	name, err := ManifestName(corrupt)
	if err != nil || name != p.Name {
		t.Fatalf("ManifestName = %q, %v; want %q", name, err, p.Name)
	}
	if _, err := ImportBytes(corrupt); !errors.Is(err, zip.ErrChecksum) {
		t.Fatalf("ImportBytes error = %v, want a checksum error", err)
	}
	for what, bad := range map[string][]byte{
		"not a zip":    []byte("garbage"),
		"no manifest":  rewrite(t, b, func(fh *zip.FileHeader) { fh.Name = strings.Replace(fh.Name, "manifest.json", "other.json", 1) }),
		"bad manifest": zipOf(t, map[string]string{"manifest.json": "{"}),
	} {
		if _, err := ManifestName(bad); err == nil {
			t.Fatalf("%s: ManifestName accepted it", what)
		}
	}
}

// zipOf builds an archive holding the given entries.
func zipOf(t *testing.T, entries map[string]string) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	for name, body := range entries {
		w, err := zw.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		io.WriteString(w, body)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
