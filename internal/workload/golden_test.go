package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"strings"
	"testing"

	"pretzel/internal/oven"
	"pretzel/internal/pipeline"
	"pretzel/internal/plan"
	"pretzel/internal/store"
	"pretzel/internal/vector"
)

// Golden answer digests. They pin every answer of seeded SA and AC
// catalogs across commits: the in-commit oracles compare a compiled plan
// with pipeline.Run, but both sides share the text, ops and ml code, so a
// change there moves both together. A change that moves any of these
// constants changes an answer (or a parameter's content) and must say why
// in CHANGES.md. Float summation order makes them specific to amd64.
const (
	goldenSARun    = "ec602e1744d9a5840127f315035ba89f719a35ddcd3337e0f49e791392d27fc9"
	goldenSAPlan   = "3f37a1cff4134e7c299fd36011b2dc89c124493fc0bf9fb945db14ced64afb06"
	goldenSAParams = "4343b7b76603a87285d990a7b28d02a05b3cde9c6df596cb40763f7dadcf6f0b"
	goldenACRun    = "f8982ba0ce6e4bf9db8018111fb1255ff7766b6427db09e4b91ff8dc5f0575d8"
	goldenACPlan   = "f8982ba0ce6e4bf9db8018111fb1255ff7766b6427db09e4b91ff8dc5f0575d8"
	goldenACParams = "942953ecfbf8ea43e8de899692f49c3a51f74f0314b71bd9a432ee4aa71a2634"
)

// goldenSAInputs are the fixed SA inputs: empty, non-ASCII, tokens longer
// than seven bytes (the dictionary's hashed-key path), a 300-word review,
// and the first held-out reviews of the seeded corpus.
func goldenSAInputs(t *testing.T, set *SASet) []string {
	words := strings.Fields(strings.Repeat(strings.Join(set.TestInputs[:4], " ")+" ", 20))
	if len(words) < 300 {
		t.Fatalf("held-out reviews give %d words, want 300", len(words))
	}
	in := []string{
		"",
		"café naïve 日本語 très bien — ÀÉÎÕÜ ß",
		"extraordinarily magnificent unbelievably disappointing wonderfulness",
		"a nice wonderful product",
		strings.Join(words[:300], " "),
	}
	return append(in, set.TestInputs[:8]...)
}

// goldenACInputs are the fixed AC inputs: empty, malformed, and the first
// held-out records of the seeded set.
func goldenACInputs(set *ACSet) []string {
	in := []string{"", "1,2,x", "0,0,0,0,0,0,0,0,0,0"}
	return append(in, set.TestInputs[:8]...)
}

// sumVector folds one answer (or the fact that it failed) into h.
func sumVector(h hash.Hash, v *vector.Vector, err error) {
	var b [4]byte
	if err != nil {
		h.Write([]byte{0xEE})
		return
	}
	h.Write([]byte{byte(v.Kind)})
	binary.LittleEndian.PutUint32(b[:], uint32(len(v.Dense)))
	h.Write(b[:])
	for _, f := range v.Dense {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(f))
		h.Write(b[:])
	}
	binary.LittleEndian.PutUint32(b[:], uint32(len(v.Idx)))
	h.Write(b[:])
	for i, ix := range v.Idx {
		binary.LittleEndian.PutUint32(b[:], uint32(ix))
		h.Write(b[:])
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v.Val[i]))
		h.Write(b[:])
	}
}

// goldenDigests runs every pipeline on every input through pipeline.Run
// and through a compiled plan, and digests the parameters' contents.
func goldenDigests(t *testing.T, pipes []*pipeline.Pipeline, inputs []string) (run, compiled, params string) {
	t.Helper()
	hr, hp, hd := sha256.New(), sha256.New(), sha256.New()
	objStore := store.New()
	ec := &plan.Exec{Pool: vector.NewPool()}
	in, got, want := vector.New(0), vector.New(0), vector.New(0)
	for _, p := range pipes {
		for _, n := range p.Nodes {
			for _, prm := range n.Op.Params() {
				d := store.DigestOf(prm)
				hd.Write(d[:])
			}
		}
		pl, err := oven.Compile(p, objStore, oven.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, s := range inputs {
			in.SetText(s)
			sumVector(hr, want, p.Run(in, want, nil))
			in.SetText(s)
			sumVector(hp, got, plan.RunPlan(pl, ec, in, got))
		}
	}
	hexOf := func(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }
	return hexOf(hr), hexOf(hp), hexOf(hd)
}

func TestGoldenAnswerDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are computed on amd64, not %s", runtime.GOARCH)
	}
	sa, err := BuildSA(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	ac, err := BuildAC(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	check := func(what, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s digest = %s, want %s", what, got, want)
		}
	}
	run, compiled, params := goldenDigests(t, sa.Pipelines, goldenSAInputs(t, sa))
	check("SA pipeline.Run", run, goldenSARun)
	check("SA compiled plan", compiled, goldenSAPlan)
	check("SA parameters", params, goldenSAParams)
	run, compiled, params = goldenDigests(t, ac.Pipelines, goldenACInputs(ac))
	check("AC pipeline.Run", run, goldenACRun)
	check("AC compiled plan", compiled, goldenACPlan)
	check("AC parameters", params, goldenACParams)
}
