package ops

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"pretzel/internal/ml"
	"pretzel/internal/schema"
	"pretzel/internal/vector"
)

// Floats is a shareable []float32 parameter (scaler offsets, imputation
// values, bucket boundaries, ...).
type Floats struct{ V []float32 }

// MemBytes implements Param.
func (f *Floats) MemBytes() int { return 24 + 4*cap(f.V) }

// WriteContent implements Param: the canonical bytes the Object Store's
// content address is computed over.
func (f *Floats) WriteContent(w io.Writer) error { return writeFloats(w, f) }

func writeFloats(w io.Writer, f *Floats) error {
	var lb [4]byte
	binary.LittleEndian.PutUint32(lb[:], uint32(len(f.V)))
	if _, err := w.Write(lb[:]); err != nil {
		return err
	}
	buf := make([]byte, 4*len(f.V))
	for i, v := range f.V {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	_, err := w.Write(buf)
	return err
}

func readFloats(r io.Reader) (*Floats, error) {
	var lb [4]byte
	if _, err := io.ReadFull(r, lb[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(lb[:])
	if n > 1<<26 {
		return nil, fmt.Errorf("ops: implausible float count %d", n)
	}
	v, err := ml.ReadFloats(r, int64(n))
	if err != nil {
		return nil, err
	}
	return &Floats{V: v}, nil
}

// takeFloats validates and extracts n *Floats params.
func takeFloats(kind string, ps []Param, n int) ([]*Floats, error) {
	if len(ps) != n {
		return nil, fmt.Errorf("ops: %s takes %d params, got %d", kind, n, len(ps))
	}
	out := make([]*Floats, n)
	for i, p := range ps {
		f, ok := p.(*Floats)
		if !ok {
			return nil, fmt.Errorf("ops: %s param %d must be *Floats, got %T", kind, i, p)
		}
		out[i] = f
	}
	return out, nil
}

// --- ParseFloats ---

// maxParseDim bounds ParseFloats.Dim at import. Dim sizes the output
// vector of every predict, so an upload must not set it past what a
// line can fill: a 1 MiB /predict body holds about 512k fields, and the
// AC trainers emit 40.
const maxParseDim = 1 << 16

// ParseFloats parses a separator-delimited numeric line into a dense
// vector (the structured-input front of AC pipelines).
type ParseFloats struct {
	Sep byte
	Dim int
}

// Info implements Op.
func (o *ParseFloats) Info() Info {
	return Info{Kind: "ParseFloats", NInputs: 1, MemoryBound: true}
}

// OutSchema implements Op.
func (o *ParseFloats) OutSchema(in []*schema.Schema) (*schema.Schema, error) {
	if len(in) != 1 {
		return nil, errInputs("ParseFloats", 1, len(in))
	}
	if err := in[0].CheckKind("ParseFloats", schema.ColText); err != nil {
		return nil, err
	}
	return schema.Vector("features", o.Dim, false), nil
}

// Transform implements Op. The line must hold exactly Dim fields: a
// trailing separator counts as one more, empty field.
func (o *ParseFloats) Transform(in []*vector.Vector, out *vector.Vector) error {
	if len(in) != 1 || in[0].Kind != vector.KindText {
		return fmt.Errorf("ops: ParseFloats needs one text input")
	}
	d := out.UseDense(o.Dim)
	line := in[0].Text
	i := 0
	for f := 0; f < o.Dim; f++ {
		j := i
		for j < len(line) && line[j] != o.Sep {
			j++
		}
		v, err := parseField(line[i:j])
		if err != nil {
			return fmt.Errorf("ops: ParseFloats field %d: %w", f, err)
		}
		d[f] = v
		i = j + 1
		if j >= len(line) && f < o.Dim-1 {
			return fmt.Errorf("ops: ParseFloats needs %d fields, line has %d", o.Dim, f+1)
		}
	}
	if i <= len(line) { // field Dim-1 ended at a separator
		return fmt.Errorf("ops: ParseFloats needs %d fields, line has %d", o.Dim, o.Dim+1+strings.Count(line[i:], string(o.Sep)))
	}
	return nil
}

// pow10f32 holds the powers of ten that float32 represents exactly:
// 10^10 = 2^10·5^10 with 5^10 < 2^24, while 5^11 needs 26 bits.
var pow10f32 = [...]float32{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}

// parseField returns what strconv.ParseFloat(strings.TrimSpace(s), 32)
// does, bit for bit and error for error. A plain decimal (an optional
// sign, then digits with at most one dot) whose digits make an integer
// m ≤ 2^24 with at most 10 of them after the dot takes the fast path:
// m and 10^frac are both exact in float32, so the one division rounds
// once, as strconv does (Clinger's fast path). Anything else (exponents,
// inf and nan, spaces, underscores, longer mantissas, more fraction
// digits, empty fields) goes to strconv.
func parseField(s string) (float32, error) {
	// 19 bytes hold at most 19 digits, which m cannot overflow.
	if len(s) == 0 || len(s) > 19 {
		return parseSlow(s)
	}
	i, sign := 0, uint32(0)
	if s[0] == '-' {
		sign = 1 << 31 // set on the quotient's bits, so "-0" reads -0
	}
	if s[0] == '+' || s[0] == '-' {
		i = 1
	}
	m, dot := uint64(0), -1
	for k := i; k < len(s); k++ {
		c := s[k] - '0'
		if c > 9 {
			if s[k] != '.' || dot >= 0 {
				return parseSlow(s)
			}
			dot = k
			continue
		}
		m = m*10 + uint64(c)
	}
	digits, frac := len(s)-i, 0
	if dot >= 0 {
		digits, frac = digits-1, len(s)-dot-1
	}
	if digits == 0 || m > 1<<24 || frac >= len(pow10f32) {
		return parseSlow(s)
	}
	v := float32(m) / pow10f32[frac]
	return math.Float32frombits(math.Float32bits(v) | sign), nil
}

// parseSlow is parseField's general path.
func parseSlow(s string) (float32, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 32)
	return float32(v), err
}

// Params implements Op.
func (o *ParseFloats) Params() []Param { return nil }

// SetParams implements Op.
func (o *ParseFloats) SetParams(ps []Param) error {
	if len(ps) != 0 {
		return fmt.Errorf("ops: ParseFloats takes no params")
	}
	return nil
}

// WriteParams implements Op.
func (o *ParseFloats) WriteParams(w io.Writer) error { return writeJSONFrame(w, o) }

func init() {
	register("ParseFloats", func(r io.Reader) (Op, error) {
		o := &ParseFloats{}
		if err := readJSONFrame(r, o); err != nil {
			return nil, err
		}
		if o.Dim < 1 || o.Dim > maxParseDim {
			return nil, fmt.Errorf("ops: ParseFloats dim %d outside 1..%d", o.Dim, maxParseDim)
		}
		return o, nil
	})
}

// --- Concat ---

// Concat concatenates its input vectors into one. It is the canonical
// pipeline breaker: downstream operators need the full feature vector
// (§4.1.2 StageGraphBuilderStep).
type Concat struct {
	Dims []int // input dimensionalities (fixed at training time)
}

// Info implements Op.
func (o *Concat) Info() Info {
	return Info{Kind: "Concat", NInputs: len(o.Dims), Breaker: true, MemoryBound: true}
}

// Dim returns the output dimensionality.
func (o *Concat) Dim() int {
	n := 0
	for _, d := range o.Dims {
		n += d
	}
	return n
}

// OutSchema implements Op.
func (o *Concat) OutSchema(in []*schema.Schema) (*schema.Schema, error) {
	if len(in) != len(o.Dims) {
		return nil, errInputs("Concat", len(o.Dims), len(in))
	}
	sparse := false
	for i, s := range in {
		c, err := s.Single()
		if err != nil {
			return nil, err
		}
		if c.Kind != schema.ColVector {
			return nil, &schema.MismatchError{Op: "Concat", Want: schema.ColVector, Got: c.Kind}
		}
		if c.Dim != o.Dims[i] {
			return nil, fmt.Errorf("ops: Concat input %d dim %d != trained dim %d", i, c.Dim, o.Dims[i])
		}
		sparse = sparse || c.Sparse
	}
	return schema.Vector("features", o.Dim(), sparse), nil
}

// Transform implements Op.
func (o *Concat) Transform(in []*vector.Vector, out *vector.Vector) error {
	if len(in) != len(o.Dims) {
		return errInputs("Concat", len(o.Dims), len(in))
	}
	// If any input is sparse, produce sparse output; else dense.
	anySparse := false
	for _, v := range in {
		if v.Kind == vector.KindSparse {
			anySparse = true
			break
		}
	}
	if anySparse {
		out.UseSparse(o.Dim())
		off := int32(0)
		for i, v := range in {
			switch v.Kind {
			case vector.KindSparse:
				out.AppendSparseShifted(off, v.Idx, v.Val)
			case vector.KindDense:
				for k, x := range v.Dense {
					if x != 0 {
						out.AppendSparse(off+int32(k), x)
					}
				}
			default:
				return fmt.Errorf("ops: Concat input %d is %s, want vector", i, v.Kind)
			}
			off += int32(o.Dims[i])
		}
		return nil
	}
	d := out.UseDense(o.Dim())
	off := 0
	for i, v := range in {
		if v.Kind != vector.KindDense {
			return fmt.Errorf("ops: Concat input %d is %s, want vector", i, v.Kind)
		}
		copy(d[off:off+o.Dims[i]], v.Dense)
		off += o.Dims[i]
	}
	return nil
}

// Params implements Op.
func (o *Concat) Params() []Param { return nil }

// SetParams implements Op.
func (o *Concat) SetParams(ps []Param) error {
	if len(ps) != 0 {
		return fmt.Errorf("ops: Concat takes no params")
	}
	return nil
}

// WriteParams implements Op.
func (o *Concat) WriteParams(w io.Writer) error { return writeJSONFrame(w, o) }

func init() {
	register("Concat", func(r io.Reader) (Op, error) {
		o := &Concat{}
		return o, readJSONFrame(r, o)
	})
}

// --- MeanVarScaler ---

// MeanVarScaler standardizes each coordinate: (x - mean) / std, with
// means/stds estimated at training time.
type MeanVarScaler struct {
	Mean *Floats `json:"-"`
	Std  *Floats `json:"-"`
}

// Info implements Op.
func (o *MeanVarScaler) Info() Info {
	return Info{Kind: "MeanVarScaler", NInputs: 1, MemoryBound: true}
}

// OutSchema implements Op.
func (o *MeanVarScaler) OutSchema(in []*schema.Schema) (*schema.Schema, error) {
	if len(in) != 1 {
		return nil, errInputs("MeanVarScaler", 1, len(in))
	}
	c, err := in[0].Single()
	if err != nil {
		return nil, err
	}
	if c.Kind != schema.ColVector {
		return nil, &schema.MismatchError{Op: "MeanVarScaler", Want: schema.ColVector, Got: c.Kind}
	}
	if c.Dim != 0 && c.Dim != len(o.Mean.V) {
		return nil, fmt.Errorf("ops: MeanVarScaler trained on dim %d, input dim %d", len(o.Mean.V), c.Dim)
	}
	return in[0], nil
}

// Transform implements Op.
func (o *MeanVarScaler) Transform(in []*vector.Vector, out *vector.Vector) error {
	if len(in) != 1 || in[0].Kind != vector.KindDense {
		return fmt.Errorf("ops: MeanVarScaler needs one dense input")
	}
	x := in[0].Dense
	d := out.UseDense(len(x))[:len(x)]
	// Reslicing the parameter vectors to the input length eliminates the
	// per-element bounds checks (and panics on a dim mismatch exactly
	// where the unsliced indexing would have).
	mean, std := o.Mean.V[:len(x)], o.Std.V[:len(x)]
	for i, xv := range x {
		s := std[i]
		if s == 0 {
			s = 1
		}
		d[i] = (xv - mean[i]) / s
	}
	return nil
}

// Params implements Op.
func (o *MeanVarScaler) Params() []Param { return []Param{o.Mean, o.Std} }

// SetParams implements Op.
func (o *MeanVarScaler) SetParams(ps []Param) error {
	fs, err := takeFloats("MeanVarScaler", ps, 2)
	if err != nil {
		return err
	}
	o.Mean, o.Std = fs[0], fs[1]
	return nil
}

// WriteParams implements Op.
func (o *MeanVarScaler) WriteParams(w io.Writer) error {
	if err := writeJSONFrame(w, o); err != nil {
		return err
	}
	if err := writeFloats(w, o.Mean); err != nil {
		return err
	}
	return writeFloats(w, o.Std)
}

func init() {
	register("MeanVarScaler", func(r io.Reader) (Op, error) {
		o := &MeanVarScaler{}
		if err := readJSONFrame(r, o); err != nil {
			return nil, err
		}
		var err error
		if o.Mean, err = readFloats(r); err != nil {
			return nil, err
		}
		if o.Std, err = readFloats(r); err != nil {
			return nil, err
		}
		// OutSchema checks Mean against the input dim; Transform
		// reslices Std to it too.
		if len(o.Std.V) != len(o.Mean.V) {
			return nil, fmt.Errorf("ops: MeanVarScaler has %d means and %d stds", len(o.Mean.V), len(o.Std.V))
		}
		return o, nil
	})
}

// --- Imputer ---

// Imputer replaces NaN coordinates with per-coordinate fill values
// (typically training means).
type Imputer struct {
	Fill *Floats `json:"-"`
}

// Info implements Op.
func (o *Imputer) Info() Info {
	return Info{Kind: "Imputer", NInputs: 1, MemoryBound: true}
}

// OutSchema implements Op.
func (o *Imputer) OutSchema(in []*schema.Schema) (*schema.Schema, error) {
	if len(in) != 1 {
		return nil, errInputs("Imputer", 1, len(in))
	}
	c, err := in[0].Single()
	if err != nil {
		return nil, err
	}
	if c.Kind != schema.ColVector {
		return nil, &schema.MismatchError{Op: "Imputer", Want: schema.ColVector, Got: c.Kind}
	}
	return in[0], nil
}

// Transform implements Op.
func (o *Imputer) Transform(in []*vector.Vector, out *vector.Vector) error {
	if len(in) != 1 || in[0].Kind != vector.KindDense {
		return fmt.Errorf("ops: Imputer needs one dense input")
	}
	x := in[0].Dense
	d := out.UseDense(len(x))
	fill := o.Fill.V
	for i := range x {
		if math.IsNaN(float64(x[i])) && i < len(fill) {
			d[i] = fill[i]
		} else {
			d[i] = x[i]
		}
	}
	return nil
}

// Params implements Op.
func (o *Imputer) Params() []Param { return []Param{o.Fill} }

// SetParams implements Op.
func (o *Imputer) SetParams(ps []Param) error {
	fs, err := takeFloats("Imputer", ps, 1)
	if err != nil {
		return err
	}
	o.Fill = fs[0]
	return nil
}

// WriteParams implements Op.
func (o *Imputer) WriteParams(w io.Writer) error {
	if err := writeJSONFrame(w, o); err != nil {
		return err
	}
	return writeFloats(w, o.Fill)
}

func init() {
	register("Imputer", func(r io.Reader) (Op, error) {
		o := &Imputer{}
		if err := readJSONFrame(r, o); err != nil {
			return nil, err
		}
		var err error
		if o.Fill, err = readFloats(r); err != nil {
			return nil, err
		}
		return o, nil
	})
}
