// Package dataset generates the synthetic datasets the evaluation runs on.
//
// The paper trains Sentiment Analysis pipelines on the Amazon Review
// dataset and Attendee Count pipelines on an internal record of events;
// neither is available, so we generate equivalents:
//
//   - a review corpus with a Zipfian vocabulary, where the label is a
//     noisy function of sentiment-bearing marker words, and
//   - 40-dimensional structured event records with correlated features,
//     where the attendance label is a noisy nonlinear function of a few
//     of them.
package dataset

import (
	"math"
	"math/rand"
	"strings"
)

// Review is one labelled text example.
type Review struct {
	Text  string
	Label float32 // 1 positive, 0 negative
}

// letters used for synthetic vocabulary words.
const letters = "abcdefghijklmnopqrstuvwxyz"

// positive/negative marker words injected to make the sentiment label
// learnable (and to give the n-gram dictionaries realistic hit skew).
var positiveMarkers = []string{"nice", "great", "excellent", "love", "perfect", "wonderful", "best", "amazing"}
var negativeMarkers = []string{"bad", "terrible", "poor", "hate", "awful", "worst", "broken", "refund"}

// ReviewCorpus generates reviews with a vocabSize-word Zipfian vocabulary.
type ReviewCorpus struct {
	vocab []string
	zipf  *rand.Zipf
	rng   *rand.Rand
}

// NewReviewCorpus builds a corpus generator. Deterministic for a seed.
func NewReviewCorpus(vocabSize int, seed int64) *ReviewCorpus {
	if vocabSize < 16 {
		vocabSize = 16
	}
	rng := rand.New(rand.NewSource(seed))
	vocab := make([]string, vocabSize)
	seen := map[string]bool{}
	for i := range vocab {
		for {
			n := 3 + rng.Intn(7)
			var sb strings.Builder
			for k := 0; k < n; k++ {
				sb.WriteByte(letters[rng.Intn(len(letters))])
			}
			w := sb.String()
			if !seen[w] {
				seen[w] = true
				vocab[i] = w
				break
			}
		}
	}
	return &ReviewCorpus{
		vocab: vocab,
		zipf:  rand.NewZipf(rng, 1.3, 2.0, uint64(vocabSize-1)),
		rng:   rng,
	}
}

// Next generates one review of approximately meanLen words.
func (c *ReviewCorpus) Next(meanLen int) Review {
	if meanLen < 4 {
		meanLen = 4
	}
	n := meanLen/2 + c.rng.Intn(meanLen)
	positive := c.rng.Intn(2) == 1
	var sb strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(' ')
		}
		// Inject a sentiment marker ~20% of the time.
		if c.rng.Intn(5) == 0 {
			if positive {
				sb.WriteString(positiveMarkers[c.rng.Intn(len(positiveMarkers))])
			} else {
				sb.WriteString(negativeMarkers[c.rng.Intn(len(negativeMarkers))])
			}
			continue
		}
		sb.WriteString(c.vocab[c.zipf.Uint64()])
	}
	sb.WriteByte('.')
	label := float32(0)
	if positive {
		label = 1
	}
	return Review{Text: sb.String(), Label: label}
}

// Generate returns n reviews.
func (c *ReviewCorpus) Generate(n, meanLen int) []Review {
	out := make([]Review, n)
	for i := range out {
		out[i] = c.Next(meanLen)
	}
	return out
}

// Record is one labelled structured example (Attendee Count task).
type Record struct {
	Features []float32
	Label    float32 // attendee count (non-negative)
}

// RecordGen generates structured records of the given dimensionality with
// correlated features.
type RecordGen struct {
	dim  int
	rng  *rand.Rand
	base []float32 // latent factor loadings making features correlated
}

// NewRecordGen builds a generator of dim-dimensional records.
func NewRecordGen(dim int, seed int64) *RecordGen {
	if dim < 4 {
		dim = 4
	}
	rng := rand.New(rand.NewSource(seed))
	base := make([]float32, dim)
	for i := range base {
		base[i] = float32(rng.NormFloat64())
	}
	return &RecordGen{dim: dim, rng: rng, base: base}
}

// Dim returns the feature dimensionality.
func (g *RecordGen) Dim() int { return g.dim }

// Next generates one record. The label is a noisy nonlinear function of
// the first few features (so tree ensembles have something to learn) and
// is non-negative, resembling a count.
func (g *RecordGen) Next() Record {
	f := make([]float32, g.dim)
	latent := float32(g.rng.NormFloat64())
	for i := range f {
		f[i] = g.base[i]*latent + float32(g.rng.NormFloat64())*0.5
	}
	// Count-like label: exp of a small linear score plus threshold effects.
	score := 0.8*float64(f[0]) - 0.5*float64(f[1]) + 0.3*float64(f[2])
	if f[3] > 0.5 {
		score += 1.0
	}
	lam := math.Exp(score*0.5) * 20
	label := float32(lam + g.rng.NormFloat64()*math.Sqrt(lam))
	if label < 0 {
		label = 0
	}
	return Record{Features: f, Label: label}
}

// Generate returns n records.
func (g *RecordGen) Generate(n int) []Record {
	out := make([]Record, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// SplitReviews splits reviews into train/test by fraction trainFrac.
func SplitReviews(rs []Review, trainFrac float64) (train, test []Review) {
	cut := int(float64(len(rs)) * trainFrac)
	return rs[:cut], rs[cut:]
}

// SplitRecords splits records into train/test by fraction trainFrac.
func SplitRecords(rs []Record, trainFrac float64) (train, test []Record) {
	cut := int(float64(len(rs)) * trainFrac)
	return rs[:cut], rs[cut:]
}
