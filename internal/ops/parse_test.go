package ops_test

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"pretzel/internal/dataset"
	"pretzel/internal/ops"
	"pretzel/internal/vector"
	"pretzel/internal/workload"
)

// refParseFloats is ParseFloats.Transform's loop without its fast path:
// strconv.ParseFloat on every trimmed field, with the same errors.
func refParseFloats(sep byte, dim int, line string, d []float32) error {
	i := 0
	for f := 0; f < dim; f++ {
		j := i
		for j < len(line) && line[j] != sep {
			j++
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(line[i:j]), 32)
		if err != nil {
			return fmt.Errorf("ops: ParseFloats field %d: %w", f, err)
		}
		d[f] = float32(v)
		i = j + 1
		if j >= len(line) && f < dim-1 {
			return fmt.Errorf("ops: ParseFloats needs %d fields, line has %d", dim, f+1)
		}
	}
	if fields := strings.Count(line, string(sep)) + 1; fields > dim {
		return fmt.Errorf("ops: ParseFloats needs %d fields, line has %d", dim, fields)
	}
	return nil
}

// FuzzParseFloats: on any line and any Dim from 1 to 64, Transform
// agrees with refParseFloats on the float32 bits of every field (-0 and
// NaN included) and on the error text. The committed seeds
// (testdata/fuzz/FuzzParseFloats) hold the edges of the fast path:
// signed zeros, a bare dot at either end, 2^24 and a 2^24+1 mantissa
// with a fraction, 10 and 11 fraction digits, and what falls back
// (exponents, inf, nan, spaces, empty fields, field counts).
func FuzzParseFloats(f *testing.F) {
	in, out := vector.New(0), vector.New(0)
	f.Fuzz(func(t *testing.T, line string, dim int) {
		if dim < 1 || dim > 64 {
			dim = 1 + int(uint(dim)%64)
		}
		op := &ops.ParseFloats{Sep: ',', Dim: dim}
		in.SetText(line)
		err := op.Transform([]*vector.Vector{in}, out)
		want := make([]float32, dim)
		wantErr := refParseFloats(op.Sep, dim, line, want)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%q dim %d: error %v, reference %v", line, dim, err, wantErr)
		}
		if err != nil {
			return
		}
		for k, w := range want {
			if got := out.Dense[k]; math.Float32bits(got) != math.Float32bits(w) {
				t.Fatalf("%q dim %d field %d: %v (%#08x), reference %v (%#08x)",
					line, dim, k, got, math.Float32bits(got), w, math.Float32bits(w))
			}
		}
	})
}

// recordLines renders n 40-field AC records as their serving lines.
func recordLines(n int) []string {
	lines := make([]string, n)
	for i, r := range dataset.NewRecordGen(40, 1).Generate(n) {
		lines[i] = workload.FormatRecord(r.Features)
	}
	return lines
}

// TestParseFloatsZeroAlloc: a warm Transform on a 40-field line
// allocates nothing.
func TestParseFloatsZeroAlloc(t *testing.T) {
	op := &ops.ParseFloats{Sep: ',', Dim: 40}
	in, out := vector.New(0), vector.New(0)
	in.SetText(recordLines(1)[0])
	ins := []*vector.Vector{in}
	if err := op.Transform(ins, out); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := op.Transform(ins, out); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Transform allocates %v per run", n)
	}
}

// BenchmarkParseFloats parses 40-field AC lines with Transform (fast)
// and with refParseFloats (strconv); ns/op is per line.
func BenchmarkParseFloats(b *testing.B) {
	lines := recordLines(64)
	b.Run("fast", func(b *testing.B) {
		op := &ops.ParseFloats{Sep: ',', Dim: 40}
		in, out := vector.New(0), vector.New(0)
		ins := []*vector.Vector{in}
		for i := 0; i < b.N; i++ {
			in.SetText(lines[i%len(lines)])
			if err := op.Transform(ins, out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("strconv", func(b *testing.B) {
		d := make([]float32, 40)
		for i := 0; i < b.N; i++ {
			if err := refParseFloats(',', 40, lines[i%len(lines)], d); err != nil {
				b.Fatal(err)
			}
		}
	})
}
