package incident

import (
	"slices"
	"sort"
	"strings"
)

// Set is an incident set incL(p): a duplicate-free collection of incidents
// kept in the canonical order defined by Incident.Compare. Within one
// workflow instance this coincides with the paper's "sorted by first"
// convention from Section 3.1.
//
// The zero Set is an empty set ready for use.
type Set struct {
	incidents []Incident
	// normalized records whether incidents is known sorted and deduped.
	normalized bool
}

// NewSet builds a normalized set from the given incidents.
func NewSet(incidents ...Incident) *Set {
	s := &Set{incidents: append([]Incident(nil), incidents...)}
	s.Normalize()
	return s
}

// MergeSorted builds the union of runs that are each already in canonical
// order and duplicate-free and that follow one another — the instances of
// one evaluation, the contiguous wid ranges of a partitioned one — by
// concatenating them after one Compare per run. Runs that do not follow one
// another are still merged correctly, by NewSet's sort. The runs are not
// modified.
func MergeSorted(runs ...[]Incident) *Set {
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	out := make([]Incident, 0, total)
	inOrder := true // each run starts after the one before it ends
	for _, r := range runs {
		if len(r) > 0 && len(out) > 0 {
			inOrder = inOrder && out[len(out)-1].Compare(r[0]) < 0
		}
		out = append(out, r...)
	}
	s := &Set{incidents: out, normalized: inOrder}
	s.Normalize()
	return s
}

// Add appends incidents without normalizing (cheap during evaluation inner
// loops). Call Normalize before relying on order, Len or equality.
func (s *Set) Add(incidents ...Incident) {
	s.incidents = append(s.incidents, incidents...)
	s.normalized = len(s.incidents) <= 1
}

// Normalize sorts the set and removes duplicate incidents, establishing the
// canonical form. It is idempotent and cheap when already normalized.
func (s *Set) Normalize() {
	if s.normalized {
		return
	}
	slices.SortFunc(s.incidents, Incident.Compare)
	s.incidents = slices.CompactFunc(s.incidents, Incident.Equal)
	s.normalized = true
}

// Len returns the number of distinct incidents. The set is normalized first.
func (s *Set) Len() int {
	s.Normalize()
	return len(s.incidents)
}

// At returns the i-th incident in canonical order.
func (s *Set) At(i int) Incident {
	s.Normalize()
	return s.incidents[i]
}

// Incidents returns a copy of the incidents in canonical order.
func (s *Set) Incidents() []Incident {
	s.Normalize()
	out := make([]Incident, len(s.incidents))
	copy(out, s.incidents)
	return out
}

// IsEmpty reports whether the set has no incidents.
func (s *Set) IsEmpty() bool { return s.Len() == 0 }

// Contains reports whether the set holds an incident equal to o.
func (s *Set) Contains(o Incident) bool {
	s.Normalize()
	i := sort.Search(len(s.incidents), func(i int) bool {
		return s.incidents[i].Compare(o) >= 0
	})
	return i < len(s.incidents) && s.incidents[i].Compare(o) == 0
}

// Equal reports whether two sets contain exactly the same incidents.
func (s *Set) Equal(t *Set) bool {
	s.Normalize()
	t.Normalize()
	if len(s.incidents) != len(t.incidents) {
		return false
	}
	for i := range s.incidents {
		if s.incidents[i].Compare(t.incidents[i]) != 0 {
			return false
		}
	}
	return true
}

// Union returns a new set holding every incident of s and t (deduplicated).
func (s *Set) Union(t *Set) *Set {
	s.Normalize()
	t.Normalize()
	out := &Set{incidents: make([]Incident, 0, len(s.incidents)+len(t.incidents))}
	out.incidents = append(out.incidents, s.incidents...)
	out.incidents = append(out.incidents, t.incidents...)
	out.normalized = false
	out.Normalize()
	return out
}

// FilterWID returns the subset of incidents belonging to one instance.
func (s *Set) FilterWID(wid uint64) *Set {
	s.Normalize()
	out := &Set{normalized: true}
	for _, inc := range s.incidents {
		if inc.WID() == wid {
			out.incidents = append(out.incidents, inc)
		}
	}
	return out
}

// WIDs returns the distinct instance ids with at least one incident,
// ascending.
func (s *Set) WIDs() []uint64 {
	s.Normalize()
	var out []uint64
	for _, inc := range s.incidents {
		if len(out) == 0 || out[len(out)-1] != inc.WID() {
			out = append(out, inc.WID())
		}
	}
	return out
}

// String renders the set as "{wid=1:{2}, wid=2:{5,9}}".
func (s *Set) String() string {
	s.Normalize()
	var sb strings.Builder
	sb.WriteByte('{')
	for i, inc := range s.incidents {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(inc.String())
	}
	sb.WriteByte('}')
	return sb.String()
}

// Intersect returns the incidents present in both sets.
func (s *Set) Intersect(t *Set) *Set {
	s.Normalize()
	t.Normalize()
	out := &Set{normalized: true}
	i, j := 0, 0
	for i < len(s.incidents) && j < len(t.incidents) {
		switch c := s.incidents[i].Compare(t.incidents[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			out.incidents = append(out.incidents, s.incidents[i])
			i++
			j++
		}
	}
	return out
}

// Difference returns the incidents of s that are not in t.
func (s *Set) Difference(t *Set) *Set {
	s.Normalize()
	t.Normalize()
	out := &Set{normalized: true}
	i, j := 0, 0
	for i < len(s.incidents) {
		switch {
		case j >= len(t.incidents):
			out.incidents = append(out.incidents, s.incidents[i])
			i++
		default:
			switch c := s.incidents[i].Compare(t.incidents[j]); {
			case c < 0:
				out.incidents = append(out.incidents, s.incidents[i])
				i++
			case c > 0:
				j++
			default:
				i++
				j++
			}
		}
	}
	return out
}
