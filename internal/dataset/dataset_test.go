package dataset

import (
	"strings"
	"testing"
)

func TestReviewCorpusDeterministic(t *testing.T) {
	a := NewReviewCorpus(500, 42).Generate(20, 30)
	b := NewReviewCorpus(500, 42).Generate(20, 30)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %q vs %q", i, a[i].Text, b[i].Text)
		}
	}
	c := NewReviewCorpus(500, 43).Generate(20, 30)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical corpus")
	}
}

func TestReviewShape(t *testing.T) {
	rs := NewReviewCorpus(1000, 1).Generate(200, 40)
	var pos, neg int
	for _, r := range rs {
		if len(r.Text) == 0 {
			t.Fatal("empty review")
		}
		words := strings.Fields(r.Text)
		if len(words) < 10 {
			t.Fatalf("review too short: %q", r.Text)
		}
		switch r.Label {
		case 1:
			pos++
		case 0:
			neg++
		default:
			t.Fatalf("bad label %v", r.Label)
		}
	}
	if pos == 0 || neg == 0 {
		t.Fatalf("degenerate labels: pos=%d neg=%d", pos, neg)
	}
}

func TestReviewLabelsLearnable(t *testing.T) {
	// Positive reviews should contain positive markers more often.
	rs := NewReviewCorpus(1000, 7).Generate(500, 40)
	posHit, negHit := 0, 0
	for _, r := range rs {
		hasPos := false
		for _, m := range positiveMarkers {
			if strings.Contains(r.Text, m) {
				hasPos = true
				break
			}
		}
		if r.Label == 1 && hasPos {
			posHit++
		}
		if r.Label == 0 && hasPos {
			negHit++
		}
	}
	if posHit <= negHit*2 {
		t.Fatalf("markers not predictive: posHit=%d negHit=%d", posHit, negHit)
	}
}

func TestReviewVocabZipf(t *testing.T) {
	c := NewReviewCorpus(2000, 3)
	counts := map[string]int{}
	for i := 0; i < 300; i++ {
		r := c.Next(50)
		for _, w := range strings.Fields(strings.TrimSuffix(r.Text, ".")) {
			counts[w]++
		}
	}
	// Zipfian text: the most common word should be much more frequent than
	// the median word.
	max := 0
	for _, n := range counts {
		if n > max {
			max = n
		}
	}
	if max < 50 {
		t.Fatalf("head word too rare for Zipf: %d", max)
	}
}

func TestRecordGen(t *testing.T) {
	g := NewRecordGen(40, 9)
	if g.Dim() != 40 {
		t.Fatal("dim")
	}
	recs := g.Generate(200)
	for _, r := range recs {
		if len(r.Features) != 40 {
			t.Fatalf("feature dim %d", len(r.Features))
		}
		if r.Label < 0 {
			t.Fatalf("negative label %v", r.Label)
		}
	}
	// Labels should vary.
	var lo, hi float32 = recs[0].Label, recs[0].Label
	for _, r := range recs {
		if r.Label < lo {
			lo = r.Label
		}
		if r.Label > hi {
			hi = r.Label
		}
	}
	if hi-lo < 5 {
		t.Fatalf("labels nearly constant: [%v,%v]", lo, hi)
	}
}

func TestRecordCorrelation(t *testing.T) {
	g := NewRecordGen(10, 11)
	recs := g.Generate(500)
	// Features share a latent factor, so |corr(f0,f1)| should be clearly
	// nonzero when both loadings are.
	var s0, s1, s01, ss0, ss1 float64
	for _, r := range recs {
		a, b := float64(r.Features[0]), float64(r.Features[1])
		s0 += a
		s1 += b
		s01 += a * b
		ss0 += a * a
		ss1 += b * b
	}
	n := float64(len(recs))
	cov := s01/n - (s0/n)*(s1/n)
	v0 := ss0/n - (s0/n)*(s0/n)
	v1 := ss1/n - (s1/n)*(s1/n)
	corr := cov / (sqrt(v0) * sqrt(v1))
	if corr < 0.05 && corr > -0.05 {
		t.Fatalf("features uncorrelated: corr=%v", corr)
	}
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}

func TestSmallVocabClamp(t *testing.T) {
	c := NewReviewCorpus(1, 5) // clamped to 16
	r := c.Next(1)             // clamped to 4
	if len(r.Text) == 0 {
		t.Fatal("empty text from clamped params")
	}
	g := NewRecordGen(1, 5)
	if g.Dim() != 4 {
		t.Fatalf("dim clamp: %d", g.Dim())
	}
}
