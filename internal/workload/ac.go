package workload

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"pretzel/internal/dataset"
	"pretzel/internal/ml"
	"pretzel/internal/ops"
	"pretzel/internal/pipeline"
	"pretzel/internal/schema"
)

// ACSet is the generated Attendee Count workload: regression ensembles
// over 40-dimensional structured records (Table 1), with four structural
// variants up to the paper's most complex one ("a dimensionality
// reduction step executed concurrently with a KMeans clustering, a
// TreeFeaturizer, and multi-class tree-based classifier, all fed into a
// final tree (or forest) rendering the prediction").
type ACSet struct {
	Pipelines  []*pipeline.Pipeline
	TestInputs []string
	TestLabels []float32
	Dim        int
}

// FormatRecord renders a structured record as the comma-separated line
// the AC pipelines parse.
func FormatRecord(features []float32) string {
	var sb strings.Builder
	for i, f := range features {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.FormatFloat(float64(f), 'f', 4, 32))
	}
	return sb.String()
}

// BuildAC generates the AC workload at the given scale.
func BuildAC(sc Scale) (*ACSet, error) {
	if sc.ACCount <= 0 {
		return nil, fmt.Errorf("workload: ACCount must be > 0")
	}
	gen := dataset.NewRecordGen(sc.ACDim, sc.Seed+1)
	train := gen.Generate(sc.ACTrainRows)
	test := gen.Generate(100)
	dim := gen.Dim()

	// Shared preprocessing statistics (the small parameters AC pipelines
	// do share): feature means and stds over the training set.
	mean := make([]float32, dim)
	std := make([]float32, dim)
	for _, r := range train {
		for j, v := range r.Features {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float32(len(train))
	}
	for _, r := range train {
		for j, v := range r.Features {
			d := v - mean[j]
			std[j] += d * d
		}
	}
	for j := range std {
		std[j] = sqrt32(std[j] / float32(len(train)))
		if std[j] == 0 {
			std[j] = 1
		}
	}
	scaled := make([][]float32, len(train))
	labels := make([]float32, len(train))
	for i, r := range train {
		x := make([]float32, dim)
		for j, v := range r.Features {
			x[j] = (v - mean[j]) / std[j]
		}
		scaled[i] = x
		labels[i] = r.Label
	}

	set := &ACSet{Dim: dim}
	for i := 0; i < sc.ACCount; i++ {
		seed := sc.Seed + int64(i)*613
		rng := rand.New(rand.NewSource(seed))
		variant := i % 4

		// Per-pipeline bootstrap sample → diverse trained parameters.
		bx := make([][]float32, len(scaled))
		by := make([]float32, len(scaled))
		for k := range bx {
			j := rng.Intn(len(scaled))
			bx[k] = scaled[j]
			by[k] = labels[j]
		}

		pcaK := 3 + rng.Intn(4)
		pca, err := ml.TrainPCA(bx, ml.PCAOptions{K: pcaK, Iters: 15, Seed: seed})
		if err != nil {
			return nil, err
		}

		nodes := []pipeline.Node{
			{Op: &ops.ParseFloats{Sep: ',', Dim: dim}, Inputs: []int{pipeline.InputID}},
			{Op: &ops.Imputer{Fill: &ops.Floats{V: mean}}, Inputs: []int{0}},
			{Op: &ops.MeanVarScaler{Mean: &ops.Floats{V: mean}, Std: &ops.Floats{V: std}}, Inputs: []int{1}},
		}
		scaledIdx := 2

		branchOuts := []int{}
		branchDims := []int{}

		// Branch 1: PCA (all variants).
		nodes = append(nodes, pipeline.Node{Op: &ops.PCATransform{Model: pca}, Inputs: []int{scaledIdx}})
		branchOuts = append(branchOuts, len(nodes)-1)
		branchDims = append(branchDims, pca.K) // TrainPCA caps K at the input dim

		// Branch 2: KMeans (variants >= 1).
		if variant >= 1 {
			kmK := 3 + rng.Intn(5)
			km, err := ml.TrainKMeans(bx, ml.KMeansOptions{K: kmK, MaxIters: 10, Seed: seed})
			if err != nil {
				return nil, err
			}
			nodes = append(nodes, pipeline.Node{Op: &ops.KMeansTransform{Model: km}, Inputs: []int{scaledIdx}})
			branchOuts = append(branchOuts, len(nodes)-1)
			branchDims = append(branchDims, km.K)
		}

		// Branch 3: TreeFeaturizer (variants >= 2).
		if variant >= 2 {
			ff, err := ml.TrainForest(bx, by, ml.ForestOptions{
				NumTrees: 3 + rng.Intn(3),
				Tree:     ml.TreeOptions{MaxDepth: 4, MinLeaf: 3},
				Seed:     seed,
			})
			if err != nil {
				return nil, err
			}
			tf := ops.NewTreeFeaturize(ff)
			nodes = append(nodes, pipeline.Node{Op: tf, Inputs: []int{scaledIdx}})
			branchOuts = append(branchOuts, len(nodes)-1)
			branchDims = append(branchDims, ff.TotalLeaves())
		}

		// Branch 4: multi-class tree classifier (variant 3, the most
		// complex shape in the paper).
		if variant >= 3 {
			classes := 3 + rng.Intn(3)
			ys := make([]int, len(by))
			for k, v := range by {
				c := int(v / 15)
				if c >= classes {
					c = classes - 1
				}
				ys[k] = c
			}
			mc, err := ml.TrainMultiClassForest(bx, ys, ml.MultiClassOptions{
				NumClasses: classes,
				Forest: ml.ForestOptions{
					NumTrees: 2,
					Tree:     ml.TreeOptions{MaxDepth: 3, MinLeaf: 3},
					Seed:     seed,
				},
			})
			if err != nil {
				return nil, err
			}
			nodes = append(nodes, pipeline.Node{Op: &ops.MultiClassPredictor{Model: mc}, Inputs: []int{scaledIdx}})
			branchOuts = append(branchOuts, len(nodes)-1)
			branchDims = append(branchDims, classes)
		}

		// Concat the branches and train the final forest on the ensemble
		// features.
		concat := &ops.Concat{Dims: branchDims}
		nodes = append(nodes, pipeline.Node{Op: concat, Inputs: branchOuts})
		concatIdx := len(nodes) - 1

		featDim := concat.Dim()
		fx := make([][]float32, len(bx))
		for k, x := range bx {
			f := make([]float32, 0, featDim)
			buf := make([]float32, featDim)
			pca.Project(x, buf[:pca.K])
			f = append(f, buf[:pca.K]...)
			for _, nd := range nodes[3:concatIdx] {
				switch op := nd.Op.(type) {
				case *ops.KMeansTransform:
					op.Model.Distances(x, buf[:op.Model.K])
					f = append(f, buf[:op.Model.K]...)

				case *ops.TreeFeaturize:
					leaf := make([]float32, op.Forest.TotalLeaves())
					feats := ml.NewTreeFeaturizer(op.Forest)
					feats.Featurize(x, func(ix int32, v float32) { leaf[ix] = v })
					f = append(f, leaf...)

				case *ops.MultiClassPredictor:
					probs := make([]float32, op.Model.NumClasses())
					op.Model.Scores(x, probs)
					f = append(f, probs...)

				}
			}
			fx[k] = f
		}
		final, err := ml.TrainForest(fx, by, ml.ForestOptions{
			NumTrees: 4 + rng.Intn(4),
			Tree:     ml.TreeOptions{MaxDepth: 5, MinLeaf: 3},
			Seed:     seed + 5,
		})
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, pipeline.Node{Op: &ops.ForestPredictor{Model: final}, Inputs: []int{concatIdx}})

		p := &pipeline.Pipeline{
			Name:        fmt.Sprintf("ac-%03d", i),
			InputSchema: schema.Text("Line"),
			Stats:       pipeline.Stats{MaxVectorSize: maxInt(dim, featDim)},
			Nodes:       nodes,
		}
		if _, err := p.Validate(); err != nil {
			return nil, fmt.Errorf("workload: ac-%03d: %w", i, err)
		}
		set.Pipelines = append(set.Pipelines, p)
	}
	for _, r := range test {
		set.TestInputs = append(set.TestInputs, FormatRecord(r.Features))
		set.TestLabels = append(set.TestLabels, r.Label)
	}
	return set, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func sqrt32(x float32) float32 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 20; i++ {
		z = (z + x/z) / 2
	}
	return z
}
