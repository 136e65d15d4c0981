package flour

import (
	"fmt"

	"pretzel/internal/pipeline"
)

// Only tests call the functions in this file: no binary links them, so
// they are test helpers, kept beside the tests that check them until
// those tests are retired with them.

// WithStats attaches training statistics to the program (§4.1.1).
func (t *Transform) WithStats(stats pipeline.Stats) *Transform {
	if stats.MaxVectorSize > t.prg.stats.MaxVectorSize {
		t.prg.stats.MaxVectorSize = stats.MaxVectorSize
	}
	if stats.AvgTokens > 0 {
		t.prg.stats.AvgTokens = stats.AvgTokens
	}
	t.prg.stats.SparseOutput = t.prg.stats.SparseOutput || stats.SparseOutput
	return t
}

// FromPipeline re-imports a trained pipeline (e.g. loaded from an ML.Net
// style model file) as a Flour transform, the path used by the automatic
// extraction instrumentation described in §4.1.1.
func (c *Context) FromPipeline(p *pipeline.Pipeline) (*Transform, error) {
	if _, err := p.Validate(); err != nil {
		return nil, fmt.Errorf("flour: FromPipeline: %w", err)
	}
	prg := &program{ctx: c, input: p.InputSchema, stats: p.Stats}
	t := &Transform{prg: prg, node: pipeline.InputID}
	for _, n := range p.Nodes {
		t = t.append(n.Op, n.Inputs...)
		if prg.err != nil {
			return nil, prg.err
		}
	}
	return t, nil
}
