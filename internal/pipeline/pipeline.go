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
	"encoding/json"
	"fmt"
	"io"

	"pretzel/internal/ops"
	"pretzel/internal/schema"
	"pretzel/internal/vector"
)

// InputID is the pseudo node id denoting the pipeline input.
const InputID = -1

// Node is one operator in the DAG with its input edges.
type Node struct {
	Op     ops.Op
	Inputs []int // producer node ids (InputID for the pipeline input)
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

// OpResolver maps a serialized operator to an instance. It allows the
// importer to share operator objects across model files: a white-box
// loader checksums raw and returns a previously built instance when the
// bytes match (skipping deserialization entirely — the §4.1.3 load-time
// optimization), while the default resolver always deserializes.
type OpResolver func(kind string, raw []byte) (ops.Op, error)

// DefaultResolver deserializes every operator (black-box semantics:
// every pipeline owns fresh parameter objects).
func DefaultResolver(kind string, raw []byte) (ops.Op, error) {
	return ops.Read(kind, bytes.NewReader(raw))
}

// Import reads a pipeline from a zip archive produced by Export.
func Import(r io.ReaderAt, size int64) (*Pipeline, error) {
	return ImportWith(r, size, DefaultResolver)
}

// ImportWith reads a pipeline resolving each operator through resolve.
func ImportWith(r io.ReaderAt, size int64, resolve OpResolver) (*Pipeline, error) {
	zr, err := zip.NewReader(r, size)
	if err != nil {
		return nil, fmt.Errorf("pipeline import: %w", err)
	}
	files := make(map[string]*zip.File, len(zr.File))
	for _, f := range zr.File {
		files[f.Name] = f
	}
	mf, ok := files["manifest.json"]
	if !ok {
		return nil, fmt.Errorf("pipeline import: missing manifest.json")
	}
	mr, err := mf.Open()
	if err != nil {
		return nil, err
	}
	defer mr.Close()
	var m manifest
	if err := json.NewDecoder(mr).Decode(&m); err != nil {
		return nil, fmt.Errorf("pipeline import: manifest: %w", err)
	}
	p := &Pipeline{Name: m.Name, Stats: m.Stats, InputSchema: schema.New(m.Input.Cols...)}
	for i, mn := range m.Nodes {
		pf, ok := files[mn.Dir+"/params.bin"]
		if !ok {
			return nil, fmt.Errorf("pipeline import: node %d: missing %s/params.bin", i, mn.Dir)
		}
		pr, err := pf.Open()
		if err != nil {
			return nil, err
		}
		raw, err := io.ReadAll(pr)
		pr.Close()
		if err != nil {
			return nil, fmt.Errorf("pipeline import: node %d: %w", i, err)
		}
		op, err := resolve(mn.Kind, raw)
		if err != nil {
			return nil, fmt.Errorf("pipeline import: node %d: %w", i, err)
		}
		p.Nodes = append(p.Nodes, Node{Op: op, Inputs: mn.Inputs})
	}
	if _, err := p.Validate(); err != nil {
		return nil, fmt.Errorf("pipeline import: %w", err)
	}
	return p, nil
}

// ImportBytes is Import from a byte slice.
func ImportBytes(b []byte) (*Pipeline, error) {
	return Import(bytes.NewReader(b), int64(len(b)))
}

// ImportBytesWith is ImportWith from a byte slice.
func ImportBytesWith(b []byte, resolve OpResolver) (*Pipeline, error) {
	return ImportWith(bytes.NewReader(b), int64(len(b)), resolve)
}
