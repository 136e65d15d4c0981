// Package pipeline represents trained model pipelines: DAGs of trained
// operators plus the statistics collected during training. Pipelines are
// exported in the ML.Net style the paper describes (§2: "compressed files
// containing several directories, one per pipeline operator, where each
// directory stores operator parameters") — here a zip archive with a
// manifest and one directory per operator.
package pipeline

import (
	"archive/zip"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"io"

	"pretzel/internal/ops"
	"pretzel/internal/schema"
	"pretzel/internal/store"
	"pretzel/internal/vector"
)

// InputID is the pseudo node id denoting the pipeline input.
const InputID = -1

// Node is one operator in the DAG with its input edges.
type Node struct {
	Op     ops.Op
	Inputs []int // producer node ids (InputID for the pipeline input)
	// Raw is the key ImportIndexed looked the operator up under; a
	// compile records it in the Object Store's raw index. Nil for
	// pipelines built or imported any other way.
	Raw *store.RawKey
	// Shared marks an operator taken from the raw index: other plans
	// and imports hold it too, so it must not be written to.
	Shared bool
}

// Stats carries training-time statistics the compiler consumes (§4.1.1:
// "each Flour transformation accepts as input an optional set of
// statistics gathered from training ... max vector size, dense/sparse
// representations, etc.").
type Stats struct {
	MaxVectorSize int     `json:"max_vector_size"`
	AvgTokens     float64 `json:"avg_tokens"`
	SparseOutput  bool    `json:"sparse_output"`
}

// Pipeline is a trained model pipeline.
type Pipeline struct {
	Name        string
	Nodes       []Node // topological order; the last node is the output
	InputSchema *schema.Schema
	Stats       Stats
}

// Output returns the id of the output node.
func (p *Pipeline) Output() int { return len(p.Nodes) - 1 }

// Validate propagates schemas through the DAG, checking operator input
// kinds and graph well-formedness (a final predictor must exist). It
// returns the output schema.
func (p *Pipeline) Validate() (*schema.Schema, error) {
	if len(p.Nodes) == 0 {
		return nil, fmt.Errorf("pipeline %s: empty", p.Name)
	}
	if p.InputSchema == nil {
		return nil, fmt.Errorf("pipeline %s: no input schema", p.Name)
	}
	schemas := make([]*schema.Schema, len(p.Nodes))
	for i, n := range p.Nodes {
		ins := make([]*schema.Schema, len(n.Inputs))
		for k, src := range n.Inputs {
			switch {
			case src == InputID:
				ins[k] = p.InputSchema
			case src >= 0 && src < i:
				ins[k] = schemas[src]
			default:
				return nil, fmt.Errorf("pipeline %s: node %d input %d not topologically ordered", p.Name, i, src)
			}
		}
		out, err := n.Op.OutSchema(ins)
		if err != nil {
			return nil, fmt.Errorf("pipeline %s: node %d (%s): %w", p.Name, i, n.Op.Info().Kind, err)
		}
		schemas[i] = out
	}
	return schemas[p.Output()], nil
}

// Run evaluates the pipeline on one input record, materializing one
// intermediate vector per node (the reference, unoptimized semantics used
// by tests and by the black-box baseline). scratch, when non-nil, supplies
// reusable vectors indexed by node id.
func (p *Pipeline) Run(in *vector.Vector, out *vector.Vector, scratch []*vector.Vector) error {
	if len(p.Nodes) == 0 {
		return fmt.Errorf("pipeline %s: empty", p.Name)
	}
	vecs := scratch
	if len(vecs) < len(p.Nodes) {
		vecs = make([]*vector.Vector, len(p.Nodes))
		for i := range vecs {
			vecs[i] = vector.New(0)
		}
	}
	var ins [4]*vector.Vector
	for i, n := range p.Nodes {
		inputs := ins[:0]
		for _, src := range n.Inputs {
			if src == InputID {
				inputs = append(inputs, in)
			} else {
				inputs = append(inputs, vecs[src])
			}
		}
		dst := vecs[i]
		if i == p.Output() {
			dst = out
		}
		if err := n.Op.Transform(inputs, dst); err != nil {
			return fmt.Errorf("pipeline %s: node %d (%s): %w", p.Name, i, n.Op.Info().Kind, err)
		}
	}
	return nil
}

// MemBytes sums the parameter footprint of all operators.
func (p *Pipeline) MemBytes() int {
	n := 128
	for _, node := range p.Nodes {
		n += ops.MemBytes(node.Op)
	}
	return n
}

// --- export / import ---

// manifest is the JSON descriptor stored at the root of a model file.
type manifest struct {
	Name   string         `json:"name"`
	Stats  Stats          `json:"stats"`
	Input  manifestSchema `json:"input"`
	Nodes  []manifestNode `json:"nodes"`
	Format int            `json:"format"`
}

type manifestNode struct {
	Kind   string `json:"kind"`
	Inputs []int  `json:"inputs"`
	Dir    string `json:"dir"`
}

type manifestSchema struct {
	Cols []schema.Column `json:"cols"`
}

// Export writes the pipeline as a zip archive: manifest.json plus one
// directory per operator holding its serialized parameters.
func (p *Pipeline) Export(w io.Writer) error {
	zw := zip.NewWriter(w)
	m := manifest{Name: p.Name, Stats: p.Stats, Format: 1}
	if p.InputSchema != nil {
		m.Input.Cols = p.InputSchema.Cols
	}
	for i, n := range p.Nodes {
		dir := fmt.Sprintf("op_%03d_%s", i, n.Op.Info().Kind)
		m.Nodes = append(m.Nodes, manifestNode{Kind: n.Op.Info().Kind, Inputs: n.Inputs, Dir: dir})
		fw, err := zw.Create(dir + "/params.bin")
		if err != nil {
			return fmt.Errorf("pipeline export: %w", err)
		}
		if err := n.Op.WriteParams(fw); err != nil {
			return fmt.Errorf("pipeline export node %d: %w", i, err)
		}
	}
	mb, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	fw, err := zw.Create("manifest.json")
	if err != nil {
		return err
	}
	if _, err := fw.Write(mb); err != nil {
		return err
	}
	return zw.Close()
}

// ExportBytes is Export into a fresh byte slice.
func (p *Pipeline) ExportBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := p.Export(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ImportBytes reads a pipeline from a zip archive produced by Export.
// Every operator is parsed into fresh parameter objects, as a black-box
// serving system would hold them.
func ImportBytes(b []byte) (*Pipeline, error) {
	return importFrom(b, nil)
}

// ImportIndexed is ImportBytes that first looks each operator up in the
// Object Store's raw index (§4.1.3: "parameters equality is computed by
// looking at the checksum of the serialized version of the objects").
// A params.bin is keyed by a SHA-256 over its kind, its zip header
// fields and every stored byte a read of it checks. On a hit the canonical
// operator is used as is: nothing is inflated, parsed or digested, and
// the operator is shared, so it must not be written to. On a miss the
// entry is inflated and parsed as by ImportBytes, and the compile that
// interns its parameters records the key. The import itself takes no
// Object Store reference. It accepts and rejects exactly what
// ImportBytes does, and with a nil store it is ImportBytes.
func ImportIndexed(b []byte, s *store.ObjectStore) (*Pipeline, error) {
	return importFrom(b, s)
}

// maxInflatedBytes caps the total uncompressed size of one model
// archive, so a small deflate bomb cannot make an import inflate
// gigabytes. The largest model the workloads build (a full-scale SA
// pipeline) inflates to about 1.4 MB; the paper's largest dictionaries
// are 83 MB.
const maxInflatedBytes = 256 << 20

var errTooLarge = fmt.Errorf("archive inflates past %d bytes", maxInflatedBytes)

// importFrom reads a pipeline from the archive b, through the raw index
// of s when s is not nil.
func importFrom(b []byte, s *store.ObjectStore) (*Pipeline, error) {
	zr, err := zip.NewReader(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		return nil, fmt.Errorf("pipeline import: %w", err)
	}
	files := make(map[string]*zip.File, len(zr.File))
	var declared uint64
	for _, f := range zr.File {
		files[f.Name] = f
		if f.UncompressedSize64 > maxInflatedBytes-declared {
			return nil, fmt.Errorf("pipeline import: %w", errTooLarge)
		}
		declared += f.UncompressedSize64
	}
	// budget bounds the bytes actually read, whatever the headers claim.
	budget := int64(maxInflatedBytes)
	mf, ok := files["manifest.json"]
	if !ok {
		return nil, fmt.Errorf("pipeline import: missing manifest.json")
	}
	mb, err := readEntry(mf, &budget)
	if err != nil {
		return nil, fmt.Errorf("pipeline import: manifest: %w", err)
	}
	var m manifest
	if err := json.NewDecoder(bytes.NewReader(mb)).Decode(&m); err != nil {
		return nil, fmt.Errorf("pipeline import: manifest: %w", err)
	}
	p := &Pipeline{Name: m.Name, Stats: m.Stats, InputSchema: schema.New(m.Input.Cols...)}
	var (
		keys []store.RawKey
		kr   rawKeyer
	)
	if s != nil {
		keys, kr.h = make([]store.RawKey, len(m.Nodes)), sha256.New()
	}
	for i, mn := range m.Nodes {
		pf, ok := files[mn.Dir+"/params.bin"]
		if !ok {
			return nil, fmt.Errorf("pipeline import: node %d: missing %s/params.bin", i, mn.Dir)
		}
		n := Node{Inputs: mn.Inputs}
		if s != nil {
			if err := kr.key(&keys[i], b, pf, mn.Kind); err != nil {
				return nil, fmt.Errorf("pipeline import: node %d: %w", i, err)
			}
			n.Raw = &keys[i]
			if n.Op = s.LookupRaw(keys[i]); n.Op != nil {
				// The key fixes every byte the miss that recorded it
				// read and checked; only the read budget is left.
				n.Shared = true
				if budget -= int64(pf.UncompressedSize64); budget < 0 {
					return nil, fmt.Errorf("pipeline import: node %d: %w", i, errTooLarge)
				}
			}
		}
		if n.Op == nil {
			raw, err := readEntry(pf, &budget)
			if err != nil {
				return nil, fmt.Errorf("pipeline import: node %d: %w", i, err)
			}
			if n.Op, err = ops.Read(mn.Kind, bytes.NewReader(raw)); err != nil {
				return nil, fmt.Errorf("pipeline import: node %d: %w", i, err)
			}
			if s != nil && len(n.Op.Params()) > 0 {
				s.CountRawMiss()
			}
		}
		p.Nodes = append(p.Nodes, n)
	}
	if _, err := p.Validate(); err != nil {
		return nil, fmt.Errorf("pipeline import: %w", err)
	}
	return p, nil
}

// readEntry inflates one archive entry, charging what it reads to
// *budget and failing once the archive's total passes maxInflatedBytes.
func readEntry(f *zip.File, budget *int64) ([]byte, error) {
	rc, err := f.Open()
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	raw, err := io.ReadAll(io.LimitReader(rc, *budget+1))
	if err != nil {
		return nil, err
	}
	*budget -= int64(len(raw))
	if *budget < 0 {
		return nil, errTooLarge
	}
	return raw, nil
}

// rawKeyer keys the entries of one archive for the raw index, reusing
// one hash state and header buffer.
type rawKeyer struct {
	h   hash.Hash
	hdr []byte
}

// key sets *k to the key of the entry f of the archive b: a SHA-256 over
// its kind and header fields and every byte a read of it checks, hashed
// in place without inflating. Those are the compressed bytes and, when
// flag bit 3 (which zip.Writer sets) puts a data descriptor after them,
// the descriptor window archive/zip reads its CRC-32 from. Bytes the
// archive does not hold are not hashed, as a raw read would end there.
func (r *rawKeyer) key(k *store.RawKey, b []byte, f *zip.File, kind string) error {
	off, err := f.DataOffset()
	if err != nil {
		return err
	}
	data := clamp(b, uint64(off), f.CompressedSize64)
	var desc []byte
	if f.Flags&0x8 != 0 {
		desc = clamp(b, uint64(off)+f.CompressedSize64, 16)
	}
	r.hdr = binary.LittleEndian.AppendUint64(r.hdr[:0], uint64(len(kind)))
	r.hdr = binary.LittleEndian.AppendUint16(r.hdr, f.Method)
	r.hdr = binary.LittleEndian.AppendUint16(r.hdr, f.Flags&0x8)
	r.hdr = binary.LittleEndian.AppendUint32(r.hdr, f.CRC32)
	r.hdr = binary.LittleEndian.AppendUint64(r.hdr, f.UncompressedSize64)
	r.hdr = binary.LittleEndian.AppendUint64(r.hdr, f.CompressedSize64)
	r.hdr = binary.LittleEndian.AppendUint64(r.hdr, uint64(len(data)))
	r.hdr = binary.LittleEndian.AppendUint64(r.hdr, uint64(len(desc)))
	r.hdr = append(r.hdr, kind...)
	r.h.Reset()
	r.h.Write(r.hdr)
	r.h.Write(data)
	r.h.Write(desc)
	r.h.Sum(k[:0])
	return nil
}

// clamp returns the n bytes of b from off, or those of them b holds.
func clamp(b []byte, off, n uint64) []byte {
	end := uint64(len(b))
	if off >= end {
		return nil
	}
	if n < end-off {
		end = off + n
	}
	return b[off:end]
}
