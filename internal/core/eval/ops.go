package eval

import (
	"slices"
	"sort"

	"wlq/internal/core/incident"
)

// The operator evaluation functions below work on the incidents of a single
// workflow instance, sorted by first() as Section 3.1 assumes ("these sets
// are further assumed to be sorted by the value of the first function").
// Each returns a normalized (sorted, duplicate-free) slice, written into out
// (the step's own buffer, handed over empty); the functions that build
// incidents carve their is-lsn values from seqs, the instance's slab.
//
// Two families are provided:
//
//   - naive*: the published Algorithm 1, verbatim nested loops with the
//     complexity stated in Lemma 1.
//   - merge*: variants that exploit the sorted order (binary search on
//     first(), range-overlap pre-checks) without changing the result. The
//     benchmark suite ablates the two (experiment E9 in DESIGN.md).
//
// Every function takes an optional *opCount (nil disables counting) and
// tallies its record-level comparison work into it, in the unit Lemma 1
// counts: one unit per pair test for ⊙/≺, up to min(|o1|,|o2|) units per
// incident equality/order test for ⊗, and |o1|+|o2| units per union for ⊕.
// For the naive family the tally is therefore never above the Lemma 1
// bound computed from the actual operand sizes; the merge family counts
// its binary-search probes and merge steps instead.

// normalize sorts and deduplicates a result slice in place, establishing
// set semantics for incL(p) (Definition 4 makes incident sets true sets;
// the parallel operator can produce one union from several pairs).
func normalize(incs []incident.Incident) []incident.Incident {
	increasing := true // a join that emits in canonical order has nothing to sort
	for i := 1; i < len(incs) && increasing; i++ {
		increasing = incs[i-1].Compare(incs[i]) < 0
	}
	if increasing {
		return incs
	}
	slices.SortFunc(incs, incident.Incident.Compare)
	return slices.CompactFunc(incs, incident.Incident.Equal)
}

// minLen is the cost unit of one incident-against-incident test: comparing
// two record sets touches at most min(|o1|,|o2|) elements.
func minLen(o1, o2 incident.Incident) uint64 {
	if o1.Len() < o2.Len() {
		return uint64(o1.Len())
	}
	return uint64(o2.Len())
}

// naiveConsecutive is CONSECUTIVE-EVAL of Algorithm 1: all pairs (o1, o2)
// with last(o1)+1 = first(o2).
func naiveConsecutive(out, inc1, inc2 []incident.Incident, seqs *incident.Slab, cnt *opCount) []incident.Incident {
	for _, o1 := range inc1 {
		for _, o2 := range inc2 {
			cnt.add(1)
			if o1.Last()+1 == o2.First() {
				out = append(out, seqs.Concat(o1, o2))
			}
		}
	}
	return normalize(out)
}

// naiveSequential is SEQUENTIAL-EVAL of Algorithm 1: all pairs (o1, o2)
// with last(o1) < first(o2).
func naiveSequential(out, inc1, inc2 []incident.Incident, seqs *incident.Slab, cnt *opCount) []incident.Incident {
	for _, o1 := range inc1 {
		for _, o2 := range inc2 {
			cnt.add(1)
			if o1.Last() < o2.First() {
				out = append(out, seqs.Concat(o1, o2))
			}
		}
	}
	return normalize(out)
}

// naiveChoice is CHOICE-EVAL of Algorithm 1: the set union of the two
// incident sets. The published algorithm performs a pairwise duplicate scan
// (O(n1·n2·min(k1,k2))); we reproduce that join shape here for the ablation
// benchmarks, with mergeChoice providing the linear merge.
func naiveChoice(out, inc1, inc2 []incident.Incident, cnt *opCount) []incident.Incident {
	out = append(out, inc1...)
	for _, o2 := range inc2 {
		dup := false
		for _, o1 := range inc1 {
			cnt.add(minLen(o1, o2))
			if o1.Equal(o2) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, o2)
		}
	}
	return normalize(out)
}

// naiveParallel is PARALLEL-EVAL of Algorithm 1: all unions o1 ∪ o2 of
// record-disjoint pairs.
func naiveParallel(out, inc1, inc2 []incident.Incident, seqs *incident.Slab, cnt *opCount) []incident.Incident {
	for _, o1 := range inc1 {
		for _, o2 := range inc2 {
			cnt.add(uint64(o1.Len() + o2.Len()))
			if u, ok := seqs.Union(o1, o2); ok {
				out = append(out, u)
			}
		}
	}
	return normalize(out)
}

// mergeConsecutive exploits sortedness: for each o1, the o2 candidates are
// exactly the contiguous run of incidents with first(o2) = last(o1)+1,
// located by binary search. O(n1·log n2 + output).
func mergeConsecutive(out, inc1, inc2 []incident.Incident, seqs *incident.Slab, cnt *opCount) []incident.Incident {
	for _, o1 := range inc1 {
		want := o1.Last() + 1
		i := sort.Search(len(inc2), func(i int) bool { cnt.add(1); return inc2[i].First() >= want })
		for ; i < len(inc2); i++ {
			cnt.add(1)
			if inc2[i].First() != want {
				break
			}
			out = append(out, seqs.Concat(o1, inc2[i]))
		}
	}
	return normalize(out)
}

// mergeSequential exploits sortedness: for each o1, every o2 from the first
// index with first(o2) > last(o1) onward qualifies. The scan cost is
// O(n1·log n2) plus the (unavoidable) output size.
func mergeSequential(out, inc1, inc2 []incident.Incident, seqs *incident.Slab, cnt *opCount) []incident.Incident {
	for _, o1 := range inc1 {
		lo := o1.Last()
		i := sort.Search(len(inc2), func(i int) bool { cnt.add(1); return inc2[i].First() > lo })
		for ; i < len(inc2); i++ {
			out = append(out, seqs.Concat(o1, inc2[i]))
		}
	}
	return normalize(out)
}

// mergeChoice unions two already-normalized lists with a linear merge.
func mergeChoice(out, inc1, inc2 []incident.Incident, cnt *opCount) []incident.Incident {
	i, j := 0, 0
	for i < len(inc1) && j < len(inc2) {
		cnt.add(minLen(inc1[i], inc2[j]))
		switch c := inc1[i].Compare(inc2[j]); {
		case c < 0:
			out = append(out, inc1[i])
			i++
		case c > 0:
			out = append(out, inc2[j])
			j++
		default:
			out = append(out, inc1[i])
			i++
			j++
		}
	}
	out = append(out, inc1[i:]...)
	return append(out, inc2[j:]...)
}

// mergeParallel keeps the pair loop (disjointness is not monotone in the
// sort order) but skips the per-record disjointness scan whenever the two
// incidents' [first, last] ranges do not overlap, which is the common case
// on realistic logs.
func mergeParallel(out, inc1, inc2 []incident.Incident, seqs *incident.Slab, cnt *opCount) []incident.Incident {
	for _, o1 := range inc1 {
		for _, o2 := range inc2 {
			cnt.add(1)
			if o2.First() > o1.Last() || o1.First() > o2.Last() {
				// Ranges disjoint: union cannot overlap; concatenate cheaply.
				var u incident.Incident
				if o1.Last() < o2.First() {
					u = seqs.Concat(o1, o2)
				} else {
					u = seqs.Concat(o2, o1)
				}
				out = append(out, u)
			} else {
				cnt.add(uint64(o1.Len() + o2.Len()))
				u, ok := seqs.Union(o1, o2)
				if !ok {
					continue
				}
				out = append(out, u)
			}
		}
	}
	return normalize(out)
}
