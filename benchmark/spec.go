package main

import "time"

// Everything in this file is frozen: the catalog sizes, rates, limits,
// phase shares and round count are the same on every commit, so two
// commits are always measured under the same load. BENCHMARK.json
// repeats the workload names and the metric names below.

const (
	// modelSeed fixes the model assets. They are the system's data, not
	// a request stream, so --seed does not touch them.
	modelSeed = 2018

	rounds     = 6   // every run splits its time into this many rounds
	batchSize  = 256 // records per offline job
	setups     = 3   // fresh node constructions behind setup_s
	publishHz  = 20  // publish cycles per second beside predicts (longtail-churn)
	replyLimit = time.Second
	// pairPool is the number of (model, input) pairs the HTTP streams
	// draw from; every one has an oracle reference.
	pairPool = 4096
	// longtailInputs is the number of inputs each longtail model has. All
	// 400 x 16 pairs exist, half as many again as the result cache holds,
	// so the cache reaches a steady state instead of slowly swallowing
	// the workload, and it answers well over half of the requests, so the
	// median request is a cache hit on every run.
	longtailInputs = 16
	// orderLen is the length of the seeded pair sequence a phase walks.
	orderLen = 1 << 16
)

type catalogKind int

const (
	catMixed    catalogKind = iota // 64 SA + 32 AC
	catSA                          // the same 64 SA
	catLongtail                    // 400 salted, unshared tiny SA variants
)

// shares splits one round's time between the four views of a node.
// They add up to 1.
type shares struct {
	closed, open, batch, publish float64
}

type spec struct {
	name string
	why  string

	catalog   catalogKind
	words     int // mean words per review
	batchJobs int // prebuilt offline jobs, one model each

	cacheEntries int     // frontend result cache (0 = off)
	budgetShare  float64 // RAM budget as a share of full residency (0 = unlimited)
	churn        bool    // a publisher runs beside the predictors

	openRate float64       // req/s of the open phase
	limit    time.Duration // latency limit behind slo_ok_share
	shares   shares
}

var specs = []spec{
	{
		name:    "mixed-short",
		why:     "many small requests over 96 models: http and frontend do most of the work and the kernels almost none",
		catalog: catMixed, words: 20, batchJobs: 32,
		openRate: 18000, limit: time.Millisecond,
		shares: shares{closed: 0.20, open: 0.55, batch: 0.15, publish: 0.10},
	},
	{
		name:    "sa-long",
		why:     "300-word reviews: ops n-gram featurization does most of the work and the front door little; bypass of mixed-short",
		catalog: catSA, words: 300, batchJobs: 32,
		openRate: 4800, limit: 2 * time.Millisecond,
		shares: shares{closed: 0.20, open: 0.55, batch: 0.15, publish: 0.10},
	},
	{
		name:    "batch-offline",
		why:     "256-record PredictBatch jobs straight into the engine: the only user of sched and RunBatch, bypasses frontend",
		catalog: catMixed, words: 40, batchJobs: 96,
		openRate: 17000, limit: time.Millisecond,
		shares: shares{closed: 0.10, open: 0.25, batch: 0.55, publish: 0.10},
	},
	{
		name:    "longtail-churn",
		why:     "400 unshared models under a 25% RAM budget with a publisher: store, oven, pipeline, runtime written beside reads",
		catalog: catLongtail, words: 12, batchJobs: 32,
		cacheEntries: 4096, budgetShare: 0.25, churn: true,
		openRate: 600, limit: 10 * time.Millisecond,
		shares: shares{closed: 0.25, open: 0.60, batch: 0.15},
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// metric is one named number of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// named is a metric's name and unit, as BENCHMARK.json repeats them.
type named struct{ name, unit string }

// endToEnd lists the end-to-end metrics in the order they are printed.
var endToEnd = []named{
	{"setup_s", "s"},
	{"heap_mb", "MiB"},
	{"cold_p50_ms", "ms"},
	{"capacity_rps", "1/s"},
	{"p50_us", "us"},
	{"slo_ok_share", "share"},
	{"batch_rec_per_s", "1/s"},
	{"batch_p50_ms", "ms"},
	{"publish_p50_ms", "ms"},
}

// higherIsBetter names the end-to-end metrics that grow when the
// system gets better.
var higherIsBetter = map[string]bool{"capacity_rps": true, "slo_ok_share": true, "batch_rec_per_s": true}

// stageLabels and opKinds name the compiled stages and the logical
// operators of the two catalogs; per-layer metric names are built from
// them, so the lists are closed.
var stageLabels = []string{
	"sa-head", "sa-tail", "concat",
	"generic.parsefloats", "generic.pcatransform", "generic.kmeanstransform",
	"generic.treefeaturize", "generic.multiclasspredictor", "generic.forestpredictor",
}

var opKinds = []string{
	"tokenizer", "charngram", "wordngram", "concat", "linearpredictor",
	"parsefloats", "imputer", "meanvarscaler", "pcatransform", "kmeanstransform",
	"treefeaturize", "multiclasspredictor", "forestpredictor",
}
