// Package ops implements the ML.Net-style logical operators that trained
// pipelines are composed of. PRETZEL supports "about two dozen" operators
// (§5); this package registers the ones the repository's two workloads
// are built from, and no other: 13 kinds. SA: tokenizer, dictionary
// char and word n-grams, concat and a linear predictor. AC: a numeric
// line parser, imputer and mean-variance scaler, PCA, KMeans and tree
// featurizer transforms, and forest predictors (regression and
// multi-class). A model file that names any other kind is refused.
//
// Every operator carries the annotations the Oven optimizer matches on
// (§4.1.2: "transformation classes are annotated (e.g., 1-to-1, 1-to-n,
// memory-bound, compute-bound, commutative and associative) to ease the
// optimization process"): its arity, whether it breaks the pipeline,
// and whether it is memory-bound. Those are the ones a rule reads.
package ops

import (
	"fmt"
	"io"

	"pretzel/internal/schema"
	"pretzel/internal/vector"
)

// Param is a shareable parameter object. Its one identity is the Object
// Store's SHA-256 content digest over the dynamic type and the canonical
// bytes WriteContent produces (§4.1.3: "the checksum of the serialized
// version of the objects"): two parameters are interchangeable iff their
// content bytes are equal.
type Param interface {
	MemBytes() int
	// WriteContent writes the canonical serialized form of the
	// parameter. Implementations must be deterministic (equal content
	// ⇒ equal bytes, regardless of construction order).
	WriteContent(w io.Writer) error
}

// Info carries the optimizer-facing annotations of an operator class.
type Info struct {
	Kind string // operator class name, e.g. "CharNgram"

	// Arity/shape annotations.
	NInputs int  // number of inputs (1 for most; >1 for Concat)
	Breaker bool // pipeline breaker: needs its input fully materialized

	// Cost-model annotation driving stage fusion: a memory-bound
	// operator is pipelined with its neighbours in one pass; any other
	// operator is compute-bound and keeps a stage of its own.
	MemoryBound bool
}

// Op is one trained pipeline operator.
type Op interface {
	// Info returns the operator class annotations.
	Info() Info
	// OutSchema computes the output schema from the input schemas,
	// validating kinds (the optimizer's schema-propagation rules call it).
	OutSchema(in []*schema.Schema) (*schema.Schema, error)
	// Transform computes one output record from the input records. out is
	// a caller-provided buffer vector.
	Transform(in []*vector.Vector, out *vector.Vector) error
	// Params returns the operator's shareable parameter objects (possibly
	// empty).
	Params() []Param
	// SetParams replaces the parameter objects with shared instances of
	// the same dynamic types, in the order returned by Params.
	SetParams(ps []Param) error
	// WriteParams serializes the operator configuration and parameters.
	WriteParams(w io.Writer) error
}

// MemBytes sums the parameter footprint of an operator.
func MemBytes(op Op) int {
	n := 64 // struct overhead
	for _, p := range op.Params() {
		n += p.MemBytes()
	}
	return n
}

// --- serialization registry ---

// reader deserializes one operator kind.
type reader func(r io.Reader) (Op, error)

var registry = map[string]reader{}

// register installs a deserializer for kind; called from init functions.
func register(kind string, fn reader) { registry[kind] = fn }

// Read deserializes an operator of the given kind.
func Read(kind string, r io.Reader) (Op, error) {
	fn, ok := registry[kind]
	if !ok {
		return nil, fmt.Errorf("ops: unknown operator kind %q", kind)
	}
	op, err := fn(r)
	if err != nil {
		return nil, fmt.Errorf("ops: reading %s: %w", kind, err)
	}
	return op, nil
}

// errInputs builds the standard wrong-arity error.
func errInputs(kind string, want, got int) error {
	return fmt.Errorf("ops: %s expects %d input(s), got %d", kind, want, got)
}
