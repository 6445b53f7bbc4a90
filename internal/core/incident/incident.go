// Package incident implements incident instances and incident sets
// (Definition 4 of "Querying Workflow Logs").
//
// An incident of a pattern p in a log L is a set of log records of one
// workflow instance; we represent it compactly as the instance id plus the
// strictly increasing sequence of instance-specific log sequence numbers
// (is-lsn) of its records. The three defined functions first(o), last(o) and
// wid(o) fall out of this representation directly.
package incident

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Incident is one incident instance: a non-empty set of records of a single
// workflow instance, identified by their is-lsn values in increasing order.
//
// Incidents are immutable after construction; composition helpers return
// fresh values.
type Incident struct {
	wid  uint64
	seqs []uint64 // strictly increasing is-lsn values
}

// New builds an incident from a workflow instance id and record is-lsn
// values (in any order). It panics if seqs is empty or contains duplicates:
// incidents are, by Definition 4, non-empty sets.
func New(wid uint64, seqs ...uint64) Incident {
	if len(seqs) == 0 {
		panic("incident.New: empty incident")
	}
	s := make([]uint64, len(seqs))
	copy(s, seqs)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			panic(fmt.Sprintf("incident.New: duplicate is-lsn %d", s[i]))
		}
	}
	return Incident{wid: wid, seqs: s}
}

// FromSorted builds an incident that adopts seqs as its is-lsn values: no
// copy, no sort. It is the constructor for data arriving from outside the
// process (a decoded wire reply), so a violation of Definition 4's
// invariants — seqs empty, or not strictly increasing — is an error, not a
// panic. The caller must not retain seqs.
func FromSorted(wid uint64, seqs []uint64) (Incident, error) {
	if len(seqs) == 0 {
		return Incident{}, errors.New("empty incident")
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			return Incident{}, fmt.Errorf("is-lsn %d after %d: not strictly increasing", seqs[i], seqs[i-1])
		}
	}
	return Incident{wid: wid, seqs: seqs}, nil
}

// Adopt builds an incident over seqs as they are: no copy, no sort, no
// check. It is the evaluator's constructor, for seqs it knows to be non-empty
// and strictly increasing and that nothing writes for as long as the
// incident is read — a capacity-clipped view of a posting list, or values
// carved from a Slab.
func Adopt(wid uint64, seqs []uint64) Incident { return Incident{wid: wid, seqs: seqs} }

// WID returns wid(o), the workflow instance all records belong to.
func (o Incident) WID() uint64 { return o.wid }

// First returns first(o), the smallest is-lsn of the incident.
func (o Incident) First() uint64 { return o.seqs[0] }

// Last returns last(o), the largest is-lsn of the incident.
func (o Incident) Last() uint64 { return o.seqs[len(o.seqs)-1] }

// Len returns the number of log records in the incident.
func (o Incident) Len() int { return len(o.seqs) }

// Seqs returns a copy of the is-lsn values in increasing order.
func (o Incident) Seqs() []uint64 {
	out := make([]uint64, len(o.seqs))
	copy(out, o.seqs)
	return out
}

// Seq returns the i-th smallest is-lsn (0-based).
func (o Incident) Seq(i int) uint64 { return o.seqs[i] }

// Contains reports whether the incident includes the record with the given
// is-lsn (binary search).
func (o Incident) Contains(seq uint64) bool {
	i := sort.Search(len(o.seqs), func(i int) bool { return o.seqs[i] >= seq })
	return i < len(o.seqs) && o.seqs[i] == seq
}

// IsZero reports whether o is the zero Incident (no records); such values
// only arise from uninitialized variables, never from New or composition.
func (o Incident) IsZero() bool { return len(o.seqs) == 0 }

// Equal reports whether two incidents denote the same set of log records.
func (o Incident) Equal(p Incident) bool {
	if o.wid != p.wid || len(o.seqs) != len(p.seqs) {
		return false
	}
	for i := range o.seqs {
		if o.seqs[i] != p.seqs[i] {
			return false
		}
	}
	return true
}

// Compare totally orders incidents: by wid, then first, then last, then
// length, then lexicographically on the is-lsn sequence. The order refines
// the paper's "sorted by first" convention (Section 3.1) into a strict total
// order so that incident sets have a canonical form.
func (o Incident) Compare(p Incident) int {
	switch {
	case o.wid != p.wid:
		return cmpU64(o.wid, p.wid)
	case o.First() != p.First():
		return cmpU64(o.First(), p.First())
	case o.Last() != p.Last():
		return cmpU64(o.Last(), p.Last())
	case len(o.seqs) != len(p.seqs):
		return len(o.seqs) - len(p.seqs)
	}
	for i := range o.seqs {
		if o.seqs[i] != p.seqs[i] {
			return cmpU64(o.seqs[i], p.seqs[i])
		}
	}
	return 0
}

func cmpU64(a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Disjoint reports whether the two incidents share no log records. Incidents
// of different instances are trivially disjoint. The scan is the linear merge
// the paper's complexity analysis assumes for the parallel operator.
func (o Incident) Disjoint(p Incident) bool {
	if o.wid != p.wid {
		return true
	}
	i, j := 0, 0
	for i < len(o.seqs) && j < len(p.seqs) {
		switch {
		case o.seqs[i] == p.seqs[j]:
			return false
		case o.seqs[i] < p.seqs[j]:
			i++
		default:
			j++
		}
	}
	return true
}

// Union returns o ∪ p, merging the two sorted is-lsn sequences. ok is false
// when the incidents belong to different instances or share a record (the
// parallel operator requires disjointness; consecutive and sequential
// guarantee it by their ordering constraints).
func (o Incident) Union(p Incident) (Incident, bool) {
	if o.wid != p.wid {
		return Incident{}, false
	}
	merged, ok := appendUnion(make([]uint64, 0, len(o.seqs)+len(p.seqs)), o.seqs, p.seqs)
	if !ok {
		return Incident{}, false
	}
	return Incident{wid: o.wid, seqs: merged}, true
}

// appendUnion appends the merge of two strictly increasing lists to dst; ok
// is false, and dst's extension partial, when they share a value.
func appendUnion(dst, a, b []uint64) (_ []uint64, ok bool) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return dst, false
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		default:
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...), true
}

// Concat returns o ∪ p for the consecutive/sequential case where every
// record of o precedes every record of p; it panics if that precondition is
// violated (composition in internal/core/eval checks last(o) < first(p)
// before calling).
func (o Incident) Concat(p Incident) Incident {
	mustPrecede(o, p)
	return Incident{wid: o.wid, seqs: append(append(make([]uint64, 0, len(o.seqs)+len(p.seqs)), o.seqs...), p.seqs...)}
}

// mustPrecede panics unless every record of o precedes every record of p in
// the same instance: Concat's precondition.
func mustPrecede(o, p Incident) {
	if o.wid != p.wid || o.Last() >= p.First() {
		panic(fmt.Sprintf("incident.Concat: %v does not precede %v", o, p))
	}
}

// String renders the incident as "wid=2:{5,9}".
func (o Incident) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "wid=%d:{", o.wid)
	for i, s := range o.seqs {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", s)
	}
	sb.WriteByte('}')
	return sb.String()
}
