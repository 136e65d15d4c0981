// Package vector provides the data vectors exchanged between pipeline
// stages, plus size-classed pools that let the runtime avoid memory
// allocation on the prediction path (PRETZEL §3 "avoid memory allocation
// on the data path" and §4.2.1 vector pools).
//
// A Vector is a tagged union over the column kinds the operator set needs:
// raw text, token lists, dense float32 vectors and sparse float32 vectors.
// Vectors are mutable buffers owned by exactly one pipeline execution at a
// time; immutability between operators (as in ML.Net) is obtained by
// convention: a stage never writes its input vectors.
package vector

import (
	"fmt"
	"sort"
	"strings"
)

// Kind discriminates the payload held by a Vector.
type Kind uint8

// Payload kinds.
const (
	KindInvalid Kind = iota
	KindText         // a single string (raw input column)
	KindTokens       // a token list produced by a tokenizer
	KindDense        // a dense float32 vector of dimension Dim
	KindSparse       // a sparse float32 vector of dimension Dim
)

// String returns a human-readable kind name.
func (k Kind) String() string {
	switch k {
	case KindText:
		return "text"
	case KindTokens:
		return "tokens"
	case KindDense:
		return "dense"
	case KindSparse:
		return "sparse"
	default:
		return "invalid"
	}
}

// Vector is a reusable buffer holding one column value.
//
// For KindDense, Dense[:Dim] holds the values. For KindSparse, Idx/Val hold
// the non-zero coordinates in strictly increasing index order and Dim is the
// logical dimensionality. For KindTokens, Tokens holds the tokens. For
// KindText, Text holds the string.
type Vector struct {
	Kind   Kind
	Text   string
	Tokens []string
	Dense  []float32
	Idx    []int32
	Val    []float32
	Dim    int

	// Arena-backed token storage used by fused PRETZEL kernels: token i is
	// Arena[TokOff[i]:TokOff[i+1]]. It avoids the per-token string
	// allocations of Tokens. A KindTokens vector uses either Tokens or the
	// arena (NumTokens/TokenAt read both).
	Arena  []byte
	TokOff []int32
}

// New returns an empty, invalid vector with the given dense capacity hint.
func New(capHint int) *Vector {
	if capHint < 0 {
		capHint = 0
	}
	return &Vector{Dense: make([]float32, 0, capHint)}
}

// Reset clears the vector contents but keeps the underlying buffers so the
// vector can be reused without allocation.
func (v *Vector) Reset() {
	v.Kind = KindInvalid
	v.Text = ""
	v.Tokens = v.Tokens[:0]
	v.Dense = v.Dense[:0]
	v.Idx = v.Idx[:0]
	v.Val = v.Val[:0]
	v.Dim = 0
	v.Arena = v.Arena[:0]
	v.TokOff = v.TokOff[:0]
}

// AppendTokenBytes appends one token into the arena (no string
// allocation), making v a token vector if it is not one.
func (v *Vector) AppendTokenBytes(tok []byte) {
	if v.Kind != KindTokens {
		v.Reset()
		v.Kind = KindTokens
	}
	if len(v.TokOff) == 0 {
		v.TokOff = append(v.TokOff, 0)
	}
	v.Arena = append(v.Arena, tok...)
	v.TokOff = append(v.TokOff, int32(len(v.Arena)))
}

// NumTokens returns the token count of a token vector (either storage).
func (v *Vector) NumTokens() int {
	if len(v.TokOff) > 1 {
		return len(v.TokOff) - 1
	}
	return len(v.Tokens)
}

// TokenAt returns token i as bytes, valid until the vector is reset. It
// reads both storage forms.
func (v *Vector) TokenAt(i int) []byte {
	if len(v.TokOff) > 1 {
		return v.Arena[v.TokOff[i]:v.TokOff[i+1]]
	}
	return []byte(v.Tokens[i])
}

// SetText makes v a text vector holding s.
func (v *Vector) SetText(s string) {
	v.Reset()
	v.Kind = KindText
	v.Text = s
}

// SetTokens makes v a token vector holding toks. The slice is retained.
func (v *Vector) SetTokens(toks []string) {
	v.Reset()
	v.Kind = KindTokens
	v.Tokens = toks
}

// SetDense makes v a dense vector with the given values copied in.
func (v *Vector) SetDense(vals []float32) {
	v.Reset()
	v.Kind = KindDense
	v.Dense = append(v.Dense, vals...)
	v.Dim = len(vals)
}

// UseDense makes v a dense vector of dimension dim, reusing its buffer and
// zeroing it. It returns the writable value slice.
func (v *Vector) UseDense(dim int) []float32 {
	v.Reset()
	v.Kind = KindDense
	if cap(v.Dense) < dim {
		v.Dense = make([]float32, dim)
	} else {
		v.Dense = v.Dense[:dim]
		for i := range v.Dense {
			v.Dense[i] = 0
		}
	}
	v.Dim = dim
	return v.Dense
}

// UseSparse makes v an empty sparse vector of logical dimension dim,
// reusing its buffers.
func (v *Vector) UseSparse(dim int) {
	v.Reset()
	v.Kind = KindSparse
	v.Dim = dim
}

// AppendSparse appends a (index, value) pair to a sparse vector. Callers
// must append in strictly increasing index order; SortSparse repairs
// unordered input if needed.
func (v *Vector) AppendSparse(idx int32, val float32) {
	v.Idx = append(v.Idx, idx)
	v.Val = append(v.Val, val)
}

// AppendSparseShifted bulk-appends a sparse block with every index
// shifted by off. The copies are whole-slice appends and the shift runs
// as one blocked pass over the freshly appended region — the wide form
// of calling AppendSparse(off+idx[k], val[k]) per element.
func (v *Vector) AppendSparseShifted(off int32, idx []int32, val []float32) {
	n := len(v.Idx)
	v.Idx = append(v.Idx, idx...)
	v.Val = append(v.Val, val...)
	if off == 0 {
		return
	}
	ix := v.Idx[n:]
	for len(ix) >= 4 {
		i4 := ix[:4]
		i4[0] += off
		i4[1] += off
		i4[2] += off
		i4[3] += off
		ix = ix[4:]
	}
	for i := range ix {
		ix[i] += off
	}
}

// sparseSorter sorts parallel Idx/Val slices by index.
type sparseSorter struct{ v *Vector }

func (s sparseSorter) Len() int           { return len(s.v.Idx) }
func (s sparseSorter) Less(i, j int) bool { return s.v.Idx[i] < s.v.Idx[j] }
func (s sparseSorter) Swap(i, j int) {
	s.v.Idx[i], s.v.Idx[j] = s.v.Idx[j], s.v.Idx[i]
	s.v.Val[i], s.v.Val[j] = s.v.Val[j], s.v.Val[i]
}

// SortSparse sorts the sparse entries by index and coalesces duplicates by
// summing their values (the semantics n-gram featurizers need).
func (v *Vector) SortSparse() {
	if v.Kind != KindSparse || len(v.Idx) < 2 {
		return
	}
	sort.Sort(sparseSorter{v})
	// Coalesce duplicates in place.
	w := 0
	for r := 1; r < len(v.Idx); r++ {
		if v.Idx[r] == v.Idx[w] {
			v.Val[w] += v.Val[r]
		} else {
			w++
			v.Idx[w] = v.Idx[r]
			v.Val[w] = v.Val[r]
		}
	}
	v.Idx = v.Idx[:w+1]
	v.Val = v.Val[:w+1]
}

// At returns the value at coordinate i for dense or sparse vectors.
func (v *Vector) At(i int) float32 {
	switch v.Kind {
	case KindDense:
		if i < 0 || i >= len(v.Dense) {
			return 0
		}
		return v.Dense[i]
	case KindSparse:
		lo, hi := 0, len(v.Idx)
		for lo < hi {
			mid := (lo + hi) / 2
			if v.Idx[mid] < int32(i) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(v.Idx) && v.Idx[lo] == int32(i) {
			return v.Val[lo]
		}
		return 0
	default:
		return 0
	}
}

// CopyFrom deep-copies src into v, reusing v's buffers.
func (v *Vector) CopyFrom(src *Vector) {
	v.Reset()
	v.Kind = src.Kind
	v.Text = src.Text
	v.Tokens = append(v.Tokens, src.Tokens...)
	v.Dense = append(v.Dense, src.Dense...)
	v.Idx = append(v.Idx, src.Idx...)
	v.Val = append(v.Val, src.Val...)
	v.Dim = src.Dim
	v.Arena = append(v.Arena, src.Arena...)
	v.TokOff = append(v.TokOff, src.TokOff...)
}

// Clone returns a deep copy of v with freshly allocated buffers.
func (v *Vector) Clone() *Vector {
	c := &Vector{}
	c.CopyFrom(v)
	return c
}

// Equal reports whether two vectors hold the same logical value.
func (v *Vector) Equal(o *Vector) bool {
	if v.Kind != o.Kind || v.Dim != o.Dim {
		return false
	}
	switch v.Kind {
	case KindText:
		return v.Text == o.Text
	case KindTokens:
		if v.NumTokens() != o.NumTokens() {
			return false
		}
		for i := 0; i < v.NumTokens(); i++ {
			if string(v.TokenAt(i)) != string(o.TokenAt(i)) {
				return false
			}
		}
		return true
	case KindDense:
		if len(v.Dense) != len(o.Dense) {
			return false
		}
		for i := range v.Dense {
			if v.Dense[i] != o.Dense[i] {
				return false
			}
		}
		return true
	case KindSparse:
		if len(v.Idx) != len(o.Idx) {
			return false
		}
		for i := range v.Idx {
			if v.Idx[i] != o.Idx[i] || v.Val[i] != o.Val[i] {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// MemBytes estimates the heap bytes retained by the vector's buffers.
func (v *Vector) MemBytes() int {
	n := cap(v.Dense)*4 + cap(v.Idx)*4 + cap(v.Val)*4 + len(v.Text) + cap(v.Arena) + cap(v.TokOff)*4
	for _, t := range v.Tokens {
		n += len(t) + 16
	}
	return n
}

// String renders a short debug representation.
func (v *Vector) String() string {
	switch v.Kind {
	case KindText:
		return fmt.Sprintf("text(%q)", v.Text)
	case KindTokens:
		n := v.NumTokens()
		head := make([]string, 0, 3)
		for i := 0; i < n && i < 3; i++ {
			head = append(head, string(v.TokenAt(i)))
		}
		return fmt.Sprintf("tokens[%d](%s...)", n, strings.Join(head, ","))
	case KindDense:
		return fmt.Sprintf("dense[%d]", v.Dim)
	case KindSparse:
		return fmt.Sprintf("sparse[%d nnz=%d]", v.Dim, len(v.Idx))
	default:
		return "invalid"
	}
}
