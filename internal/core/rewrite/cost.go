package rewrite

import (
	"math"

	"wlq/internal/core/pattern"
)

// Stats is the slice of log statistics the cost model consumes. The served
// store, *colstore.Store, is what answers it in the query service and the
// library engine; *eval.Index satisfies it too.
type Stats interface {
	// ActivityCount returns how many records carry the activity name.
	ActivityCount(act string) int
	// TotalRecords returns m = |L|.
	TotalRecords() int
	// WIDs returns the workflow instance ids present in the log.
	WIDs() []uint64
}

// guardSelectivity is the assumed fraction of records passing one attribute
// guard. A classic textbook default (cf. Selinger); exact selectivities
// would need attribute histograms, which the paper's model does not discuss.
const guardSelectivity = 1.0 / 3.0

// Selectivity constants for the operators' output cardinality, as fractions
// of the Lemma 1 worst case n1·n2. The worst case is attained only by
// degenerate logs (Theorem 1's single-activity instance); on realistic logs
// the consecutive join is far more selective than the sequential one.
const (
	consecutiveSelectivity = 0.05
	sequentialSelectivity  = 0.25
	parallelSelectivity    = 0.50
)

// Estimate carries the cost model's per-pattern numbers.
type Estimate struct {
	// Card is the estimated number of incidents of the pattern per
	// workflow instance.
	Card float64
	// Cost is the estimated total work (Lemma 1 join costs, summed over
	// the pattern tree and all instances).
	Cost float64
	// Atoms is k_i of Lemma 1: the number of activity names in the pattern.
	Atoms int
}

// Estimator computes Lemma 1 cost estimates over log statistics.
type Estimator struct {
	stats Stats
	inst  float64 // number of instances, ≥ 1
	sel   Selectivities
}

// NewEstimator builds an estimator over the model's selectivity constants;
// stats may not be nil.
func NewEstimator(stats Stats) *Estimator {
	inst := float64(len(stats.WIDs()))
	if inst < 1 {
		inst = 1
	}
	return &Estimator{stats: stats, inst: inst, sel: ModelSelectivities()}
}

// Estimate returns the estimate for a pattern.
func (e *Estimator) Estimate(p pattern.Node) Estimate {
	switch p := p.(type) {
	case *pattern.Atom:
		var matches float64
		if p.Negated {
			matches = float64(e.stats.TotalRecords() - e.stats.ActivityCount(p.Activity))
		} else {
			matches = float64(e.stats.ActivityCount(p.Activity))
		}
		matches *= math.Pow(e.sel.Guard, float64(len(p.Guards)))
		perInst := matches / e.inst
		return Estimate{
			Card:  perInst,
			Cost:  perInst * e.inst, // index lookup + materialization
			Atoms: 1,
		}
	case *pattern.Binary:
		l := e.Estimate(p.Left)
		r := e.Estimate(p.Right)
		return e.Combine(p.Op, l, r)
	default:
		return Estimate{}
	}
}

// Combine folds two child estimates through an operator, per Lemma 1:
//
//	⊙, ≺ : join cost n1·n2
//	⊗    : join cost n1·n2·min(k1,k2)
//	⊕    : join cost n1·n2·(k1+k2)
//
// Output cardinalities use the estimator's selectivities; ⊗ outputs at most
// n1+n2 (the union), the others at most n1·n2.
func (e *Estimator) Combine(op pattern.Op, l, r Estimate) Estimate {
	n1, n2 := l.Card, r.Card
	k1, k2 := float64(l.Atoms), float64(r.Atoms)
	var join, card float64
	switch op {
	case pattern.OpConsecutive:
		join = n1 * n2
		card = e.sel.Consecutive * n1 * n2
	case pattern.OpSequential:
		join = n1 * n2
		card = e.sel.Sequential * n1 * n2
	case pattern.OpChoice:
		join = n1 * n2 * math.Min(k1, k2)
		card = n1 + n2
	case pattern.OpParallel:
		join = n1 * n2 * (k1 + k2)
		card = e.sel.Parallel * n1 * n2
	}
	return Estimate{
		Card:  card,
		Cost:  l.Cost + r.Cost + join*e.inst,
		Atoms: l.Atoms + r.Atoms,
	}
}

// Cost is a convenience returning just the estimated total work.
func (e *Estimator) Cost(p pattern.Node) float64 { return e.Estimate(p).Cost }

// UniformStats is a Stats implementation for use without a log: every
// activity has the same assumed frequency. It lets the optimizer run
// log-free (purely structural optimization).
type UniformStats struct {
	// PerActivity is the assumed record count per activity (default 100).
	PerActivity int
	// Instances is the assumed instance count (default 10).
	Instances int
	// ActivityNames is the assumed alphabet size (default 10).
	ActivityNames int
}

func (u UniformStats) params() (per, inst, names int) {
	per, inst, names = u.PerActivity, u.Instances, u.ActivityNames
	if per <= 0 {
		per = 100
	}
	if inst <= 0 {
		inst = 10
	}
	if names <= 0 {
		names = 10
	}
	return per, inst, names
}

// ActivityCount implements Stats.
func (u UniformStats) ActivityCount(string) int {
	per, _, _ := u.params()
	return per
}

// TotalRecords implements Stats.
func (u UniformStats) TotalRecords() int {
	per, _, names := u.params()
	return per * names
}

// WIDs implements Stats.
func (u UniformStats) WIDs() []uint64 {
	_, inst, _ := u.params()
	wids := make([]uint64, inst)
	for i := range wids {
		wids[i] = uint64(i + 1)
	}
	return wids
}
