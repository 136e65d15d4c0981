package ops_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pretzel/internal/ops"
	"pretzel/internal/pipeline"
	"pretzel/internal/workload"
)

var writeSeeds = flag.Bool("write-seeds", false, "rewrite testdata/fuzz/FuzzReadOp from seedCorpus")

// producedOps returns the first operator of each kind that tiny SA, AC
// and density model sets hold. The scale is the pipeline package's
// fuzz seed scale, with four AC models so that every AC variant is
// built.
func producedOps(tb testing.TB) map[string]ops.Op {
	tb.Helper()
	sc := workload.Scale{
		SACount: 1, ACCount: 4,
		CorpusVocab: 40, CorpusDocs: 12, TrainDocs: 8,
		CharBudget: 24, WordBudget: 12,
		ACDim: 3, ACTrainRows: 16, ReviewLength: 6,
		Seed: 5,
	}
	sa, err := workload.BuildSA(sc)
	if err != nil {
		tb.Fatal(err)
	}
	ac, err := workload.BuildAC(sc)
	if err != nil {
		tb.Fatal(err)
	}
	ds, err := workload.BuildDensity(2, sc)
	if err != nil {
		tb.Fatal(err)
	}
	got := map[string]ops.Op{}
	for _, set := range [][]*pipeline.Pipeline{sa.Pipelines, ac.Pipelines, ds.Pipelines} {
		for _, p := range set {
			for _, n := range p.Nodes {
				if k := n.Op.Info().Kind; got[k] == nil {
					got[k] = n.Op
				}
			}
		}
	}
	return got
}

// unproduced lists the registered kinds that no workload builder emits,
// each with the reason it is still registered.
var unproduced = map[string]string{
	"HashNgram": "deleting it also deletes text.HashNgramConfig and CI's hash/fnv allowance for internal/text/ngram.go, a change of its own",
}

// TestRegistryIsProduced: the registered kinds are exactly the kinds
// the workload builders emit plus those on unproduced, and nothing on
// unproduced is emitted.
func TestRegistryIsProduced(t *testing.T) {
	produced := producedOps(t)
	var want []string
	for k := range produced {
		if _, ok := unproduced[k]; ok {
			t.Errorf("%s is emitted by a builder: take it off unproduced", k)
		}
		want = append(want, k)
	}
	for k := range unproduced {
		want = append(want, k)
	}
	slices.Sort(want)
	if got := ops.Kinds(); !slices.Equal(got, want) {
		t.Fatalf("registered kinds %v, want the produced and unproduced kinds %v", got, want)
	}
}

// frame is a params.bin config frame holding cfg, followed by words.
func frame(cfg string, words ...uint32) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(cfg)))
	b = append(b, cfg...)
	for _, w := range words {
		b = binary.LittleEndian.AppendUint32(b, w)
	}
	return b
}

// hostile returns params.bin payloads that ops.Read must refuse, by
// seed name; a name starts with its kind. A self-loop would hang every
// predict, a wrapped shape leaves a model with no centroids to score
// against, a scaler with fewer stds than means panics every predict,
// and the others declare 16 MiB to 4 GiB in at most 15 bytes.
func hostile() map[string][]byte {
	return map[string][]byte{
		// One tree of one internal node whose children are itself.
		"ForestPredictor-self-loop": frame("{}", 1, 1, 1, 0, 0, 0, 0, 0),
		"KMeansTransform-wrap":      frame("{}", 1<<16, 1<<16),
		"KMeansTransform-oversize":  frame("{}", 1<<16, 16128),
		"PCATransform-wrap":         frame("{}", 1<<16, 1<<16),
		"PCATransform-oversize":     frame("{}", 63, 1<<22),
		// Kind byte 0, bias 0, then a count of 2^28 weights.
		"LinearPredictor-oversize": append(frame("{}"), 0, 0, 0, 0, 0, 0, 0, 0, 16),
		"Imputer-oversize":         frame("{}", 1<<26),
		// Three means, two stds.
		"MeanVarScaler-short-std": frame("{}", 3, 0, 0, 0, 2, 0, 0),
		"Tokenizer-oversize":      binary.LittleEndian.AppendUint32(nil, 1<<24),
	}
}

// allocBound is what ops.Read may allocate on n input bytes, the bound
// FuzzReadDict holds ReadDict to.
func allocBound(n int) uint64 { return 256<<10 + 32*uint64(n) }

// readAlloc is ops.Read of b as kind, with the bytes it allocated.
func readAlloc(kind string, b []byte) (ops.Op, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	op, err := ops.Read(kind, bytes.NewReader(b))
	runtime.ReadMemStats(&after)
	return op, after.TotalAlloc - before.TotalAlloc, err
}

// TestReadRefusesHostile: ops.Read refuses every hostile payload within
// FuzzReadOp's allocation bound.
func TestReadRefusesHostile(t *testing.T) {
	for name, b := range hostile() {
		kind, _, _ := strings.Cut(name, "-")
		op, n, err := readAlloc(kind, b)
		if err == nil {
			t.Errorf("%s: accepted %+v", name, op)
		}
		if n > allocBound(len(b)) {
			t.Errorf("%s: %d input bytes allocated %d bytes", name, len(b), n)
		}
	}
}

func writeParams(tb testing.TB, op ops.Op) []byte {
	tb.Helper()
	var b bytes.Buffer
	if err := op.WriteParams(&b); err != nil {
		tb.Fatalf("%s: %v", op.Info().Kind, err)
	}
	return b.Bytes()
}

// seedCorpus returns FuzzReadOp's seeds by name: for each registered
// kind, the parameters of its produced operator (HashNgram's are built
// here), and every hostile payload. A seed's first byte is its kind's
// index in ops.Kinds.
func seedCorpus(tb testing.TB) map[string][]byte {
	tb.Helper()
	produced := producedOps(tb)
	produced["HashNgram"] = &ops.HashNgram{Bits: 8, Word: true, MaxN: 2}
	kinds := ops.Kinds()
	seed := func(kind string, b []byte) []byte {
		return append([]byte{byte(slices.Index(kinds, kind))}, b...)
	}
	seeds := map[string][]byte{}
	for _, k := range kinds {
		seeds[k] = seed(k, writeParams(tb, produced[k]))
	}
	for name, b := range hostile() {
		kind, _, _ := strings.Cut(name, "-")
		seeds[name] = seed(kind, b)
	}
	return seeds
}

// TestReadOpSeeds: testdata/fuzz/FuzzReadOp holds seedCorpus, byte for
// byte (go test -run TestReadOpSeeds -write-seeds rewrites it), and
// ops.Read accepts every produced operator's parameters.
func TestReadOpSeeds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzReadOp")
	seeds := seedCorpus(t)
	if *writeSeeds {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, b := range seeds {
			if err := os.WriteFile(filepath.Join(dir, name), fmt.Appendf(nil, "go test fuzz v1\n[]byte(%q)\n", b), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(seeds) {
		t.Errorf("%d committed seeds, seedCorpus has %d", len(files), len(seeds))
	}
	kinds := ops.Kinds()
	for _, f := range files {
		raw, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		_, quoted, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n[]byte(")
		b, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		if want, ok := seeds[f.Name()]; !ok || b != string(want) {
			t.Errorf("%s is not seedCorpus's seed of that name", f.Name())
		}
		if slices.Contains(kinds, f.Name()) {
			if _, err := ops.Read(f.Name(), strings.NewReader(b[1:])); err != nil {
				t.Errorf("%s: %v", f.Name(), err)
			}
		}
	}
}

// FuzzReadOp reads the input's tail as the parameters of the registered
// kind its first byte picks (an index into ops.Kinds, modulo their
// count), from the committed seeds (testdata/fuzz/FuzzReadOp). ops.Read
// must not panic, must allocate at most allocBound of the input, and
// what it accepts must write parameters that read back to the same
// bytes.
func FuzzReadOp(f *testing.F) {
	kinds := ops.Kinds()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		kind := kinds[int(data[0])%len(kinds)]
		op, n, err := readAlloc(kind, data[1:])
		if n > allocBound(len(data)) {
			t.Fatalf("%s: %d input bytes allocated %d bytes", kind, len(data), n)
		}
		if err != nil {
			return
		}
		first := writeParams(t, op)
		again, err := ops.Read(kind, bytes.NewReader(first))
		if err != nil {
			t.Fatalf("%s: reading its own parameters: %v", kind, err)
		}
		if second := writeParams(t, again); !bytes.Equal(first, second) {
			t.Fatalf("%s: parameters changed over a round trip", kind)
		}
	})
}
