package ops

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"pretzel/internal/ml"
	"pretzel/internal/schema"
	"pretzel/internal/text"
	"pretzel/internal/vector"
)

// writeJSONFrame writes a length-prefixed JSON config blob.
func writeJSONFrame(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	var lb [4]byte
	binary.LittleEndian.PutUint32(lb[:], uint32(len(b)))
	if _, err := w.Write(lb[:]); err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// readJSONFrame reads a length-prefixed JSON config blob.
func readJSONFrame(r io.Reader, v any) error {
	var lb [4]byte
	if _, err := io.ReadFull(r, lb[:]); err != nil {
		return err
	}
	n := binary.LittleEndian.Uint32(lb[:])
	if n > 1<<24 {
		return fmt.Errorf("ops: implausible config size %d", n)
	}
	buf, err := ml.ReadBytes(r, int64(n))
	if err != nil {
		return err
	}
	return json.Unmarshal(buf, v)
}

// --- Tokenizer ---

// Tokenizer splits text into lowercase tokens.
type Tokenizer struct{}

// Info implements Op.
func (o *Tokenizer) Info() Info {
	return Info{Kind: "Tokenizer", NInputs: 1, MemoryBound: true}
}

// OutSchema implements Op.
func (o *Tokenizer) OutSchema(in []*schema.Schema) (*schema.Schema, error) {
	if len(in) != 1 {
		return nil, errInputs("Tokenizer", 1, len(in))
	}
	if err := in[0].CheckKind("Tokenizer", schema.ColText); err != nil {
		return nil, err
	}
	return schema.Tokens("tokens"), nil
}

// Transform implements Op.
func (o *Tokenizer) Transform(in []*vector.Vector, out *vector.Vector) error {
	if len(in) != 1 || in[0].Kind != vector.KindText {
		return fmt.Errorf("ops: Tokenizer needs one text input")
	}
	out.Reset()
	out.Kind = vector.KindTokens
	out.Tokens = text.Tokenize(in[0].Text, out.Tokens[:0])
	return nil
}

// Params implements Op.
func (o *Tokenizer) Params() []Param { return nil }

// SetParams implements Op.
func (o *Tokenizer) SetParams(ps []Param) error {
	if len(ps) != 0 {
		return fmt.Errorf("ops: Tokenizer takes no params")
	}
	return nil
}

// WriteParams implements Op.
func (o *Tokenizer) WriteParams(w io.Writer) error { return writeJSONFrame(w, o) }

func init() {
	register("Tokenizer", func(r io.Reader) (Op, error) {
		o := &Tokenizer{}
		return o, readJSONFrame(r, o)
	})
}

// --- CharNgram ---

// CharNgram extracts dictionary-mapped character n-grams from tokens,
// producing a sparse count vector.
type CharNgram struct {
	MinN, MaxN int
	Dict       *text.Dict `json:"-"`
}

// Info implements Op.
func (o *CharNgram) Info() Info {
	return Info{Kind: "CharNgram", NInputs: 1, MemoryBound: true}
}

// Dim returns the output dimensionality.
func (o *CharNgram) Dim() int { return o.Dict.Size() }

// OutSchema implements Op.
func (o *CharNgram) OutSchema(in []*schema.Schema) (*schema.Schema, error) {
	if len(in) != 1 {
		return nil, errInputs("CharNgram", 1, len(in))
	}
	if err := in[0].CheckKind("CharNgram", schema.ColTokens); err != nil {
		return nil, err
	}
	return schema.Vector("cngrams", o.Dim(), true), nil
}

// Transform implements Op.
func (o *CharNgram) Transform(in []*vector.Vector, out *vector.Vector) error {
	if len(in) != 1 || in[0].Kind != vector.KindTokens {
		return fmt.Errorf("ops: CharNgram needs one tokens input")
	}
	out.UseSparse(o.Dim())
	cfg := text.CharNgramConfig{MinN: o.MinN, MaxN: o.MaxN, Dict: o.Dict}
	cfg.ExtractTokens(in[0].Tokens, func(ix int32) { out.AppendSparse(ix, 1) })
	out.SortSparse()
	return nil
}

// Params implements Op.
func (o *CharNgram) Params() []Param { return []Param{o.Dict} }

// SetParams implements Op.
func (o *CharNgram) SetParams(ps []Param) error {
	if len(ps) != 1 {
		return fmt.Errorf("ops: CharNgram takes 1 param, got %d", len(ps))
	}
	d, ok := ps[0].(*text.Dict)
	if !ok {
		return fmt.Errorf("ops: CharNgram param must be *text.Dict, got %T", ps[0])
	}
	o.Dict = d
	return nil
}

// WriteParams implements Op.
func (o *CharNgram) WriteParams(w io.Writer) error {
	if err := writeJSONFrame(w, o); err != nil {
		return err
	}
	_, err := o.Dict.WriteTo(w)
	return err
}

func init() {
	register("CharNgram", func(r io.Reader) (Op, error) {
		o := &CharNgram{}
		if err := readJSONFrame(r, o); err != nil {
			return nil, err
		}
		if o.MinN < 0 {
			return nil, fmt.Errorf("ops: CharNgram MinN %d is negative", o.MinN)
		}
		d, err := text.ReadDict(r)
		if err != nil {
			return nil, err
		}
		o.Dict = d
		return o, nil
	})
}

// --- WordNgram ---

// maxWordParts bounds a WordNgram term at import, counted in parts
// (spaces plus one). Each token costs the word stream one probe per part
// and the ExtractTokens oracle one join per part, so the bound keeps an
// upload's dictionary from making a document cost more; every trainer in
// this repository emits terms of at most 3 parts.
const maxWordParts = 8

// WordNgram extracts dictionary-mapped word n-grams from tokens,
// producing a sparse count vector.
type WordNgram struct {
	MaxN int
	Dict *text.Dict `json:"-"`
}

// Info implements Op.
func (o *WordNgram) Info() Info {
	return Info{Kind: "WordNgram", NInputs: 1, MemoryBound: true}
}

// Dim returns the output dimensionality.
func (o *WordNgram) Dim() int { return o.Dict.Size() }

// OutSchema implements Op.
func (o *WordNgram) OutSchema(in []*schema.Schema) (*schema.Schema, error) {
	if len(in) != 1 {
		return nil, errInputs("WordNgram", 1, len(in))
	}
	if err := in[0].CheckKind("WordNgram", schema.ColTokens); err != nil {
		return nil, err
	}
	return schema.Vector("wngrams", o.Dim(), true), nil
}

// Transform implements Op.
func (o *WordNgram) Transform(in []*vector.Vector, out *vector.Vector) error {
	if len(in) != 1 || in[0].Kind != vector.KindTokens {
		return fmt.Errorf("ops: WordNgram needs one tokens input")
	}
	out.UseSparse(o.Dim())
	cfg := text.WordNgramConfig{MaxN: o.MaxN, Dict: o.Dict}
	var scratch [64]byte
	cfg.ExtractTokens(in[0].Tokens, scratch[:0], func(ix int32) { out.AppendSparse(ix, 1) })
	out.SortSparse()
	return nil
}

// Params implements Op.
func (o *WordNgram) Params() []Param { return []Param{o.Dict} }

// SetParams implements Op.
func (o *WordNgram) SetParams(ps []Param) error {
	if len(ps) != 1 {
		return fmt.Errorf("ops: WordNgram takes 1 param, got %d", len(ps))
	}
	d, ok := ps[0].(*text.Dict)
	if !ok {
		return fmt.Errorf("ops: WordNgram param must be *text.Dict, got %T", ps[0])
	}
	o.Dict = d
	return nil
}

// WriteParams implements Op.
func (o *WordNgram) WriteParams(w io.Writer) error {
	if err := writeJSONFrame(w, o); err != nil {
		return err
	}
	_, err := o.Dict.WriteTo(w)
	return err
}

func init() {
	register("WordNgram", func(r io.Reader) (Op, error) {
		o := &WordNgram{}
		if err := readJSONFrame(r, o); err != nil {
			return nil, err
		}
		d, err := text.ReadDict(r)
		if err != nil {
			return nil, err
		}
		if d.Parts() > maxWordParts {
			return nil, fmt.Errorf("ops: WordNgram term of %d parts (limit %d)", d.Parts(), maxWordParts)
		}
		o.Dict = d
		return o, nil
	})
}
