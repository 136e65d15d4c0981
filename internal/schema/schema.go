// Package schema describes the column types flowing between pipeline
// transformations and implements the schema propagation and validation
// rules the Oven optimizer runs in its InputGraphValidatorStep and
// OutputGraphValidatorStep (PRETZEL §4.1.2).
package schema

import (
	"fmt"
	"strings"
)

// ColKind is the type of one column.
type ColKind uint8

// Column kinds understood by the operator set.
const (
	ColInvalid ColKind = iota
	ColText            // raw string
	ColTokens          // token list
	ColVector          // float32 vector (dense or sparse)
	ColScalar          // single float32 (e.g. a prediction)
)

// String returns the kind name.
func (k ColKind) String() string {
	switch k {
	case ColText:
		return "text"
	case ColTokens:
		return "tokens"
	case ColVector:
		return "vector"
	case ColScalar:
		return "scalar"
	default:
		return "invalid"
	}
}

// Column is a named, typed column. Dim is the vector dimensionality when
// known (0 = unknown/variable), and Sparse is a training-time statistic
// telling the compiler whether the column is expected to be sparse.
type Column struct {
	Name   string
	Kind   ColKind
	Dim    int
	Sparse bool
}

// Schema is an ordered list of columns.
type Schema struct {
	Cols []Column
}

// New builds a schema from columns.
func New(cols ...Column) *Schema {
	return &Schema{Cols: append([]Column(nil), cols...)}
}

// Text is shorthand for a text column schema.
func Text(name string) *Schema { return New(Column{Name: name, Kind: ColText}) }

// Vector is shorthand for a single-vector schema.
func Vector(name string, dim int, sparse bool) *Schema {
	return New(Column{Name: name, Kind: ColVector, Dim: dim, Sparse: sparse})
}

// Scalar is shorthand for a scalar schema.
func Scalar(name string) *Schema { return New(Column{Name: name, Kind: ColScalar, Dim: 1}) }

// Tokens is shorthand for a token-list schema.
func Tokens(name string) *Schema { return New(Column{Name: name, Kind: ColTokens}) }

// Arity returns the number of columns.
func (s *Schema) Arity() int {
	if s == nil {
		return 0
	}
	return len(s.Cols)
}

// Single returns the only column of a single-column schema.
func (s *Schema) Single() (Column, error) {
	if s == nil || len(s.Cols) != 1 {
		return Column{}, fmt.Errorf("schema: expected single column, have %d", s.Arity())
	}
	return s.Cols[0], nil
}

// String renders "name:kind[dim]" pairs.
func (s *Schema) String() string {
	if s == nil {
		return "<nil>"
	}
	parts := make([]string, 0, len(s.Cols))
	for _, c := range s.Cols {
		if c.Dim > 0 {
			parts = append(parts, fmt.Sprintf("%s:%s[%d]", c.Name, c.Kind, c.Dim))
		} else {
			parts = append(parts, fmt.Sprintf("%s:%s", c.Name, c.Kind))
		}
	}
	return strings.Join(parts, ",")
}

// CheckKind validates that the single column of s has the wanted kind;
// transformations use it to implement the paper's schema-validation rule
// ("a WordNgram has a string type as input schema, a linear learner has a
// vector of floats as input").
func (s *Schema) CheckKind(op string, want ColKind) error {
	c, err := s.Single()
	if err != nil {
		return fmt.Errorf("%s: %w", op, err)
	}
	if c.Kind != want {
		return &MismatchError{Op: op, Want: want, Got: c.Kind}
	}
	return nil
}

// MismatchError reports a schema validation failure.
type MismatchError struct {
	Op   string
	Want ColKind
	Got  ColKind
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("schema: %s expects %s input, got %s", e.Op, e.Want, e.Got)
}
