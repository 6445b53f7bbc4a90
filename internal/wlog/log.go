package wlog

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// ErrInvalidLog is the sentinel wrapped by every Definition 2 violation
// reported by Validate, so callers can test errors.Is(err, ErrInvalidLog).
var ErrInvalidLog = errors.New("invalid workflow log")

// Condition identifies which of the four validity conditions of Definition 2
// a record violates.
type Condition int

// The four conditions of Definition 2.
const (
	// CondDenseLSN: the log sequence numbers are exactly 1..|L| (a bijection
	// with the first |L| natural numbers).
	CondDenseLSN Condition = iota + 1
	// CondStartFirst: is-lsn(l) = 1 iff act(l) = START.
	CondStartFirst
	// CondConsecutiveSeq: within an instance, is-lsn values are consecutive
	// and each non-first record is preceded (in lsn order) by its predecessor.
	CondConsecutiveSeq
	// CondEndLast: no record of an instance follows its END record.
	CondEndLast
)

// String names the condition as cited in the paper.
func (c Condition) String() string {
	switch c {
	case CondDenseLSN:
		return "condition 1 (dense log sequence numbers)"
	case CondStartFirst:
		return "condition 2 (START iff is-lsn=1)"
	case CondConsecutiveSeq:
		return "condition 3 (consecutive instance sequence numbers)"
	case CondEndLast:
		return "condition 4 (END is last per instance)"
	default:
		return fmt.Sprintf("condition %d", int(c))
	}
}

// ValidationError describes a single Definition 2 violation.
type ValidationError struct {
	Cond Condition
	LSN  uint64 // offending record's lsn (0 when not tied to one record)
	Msg  string
}

// Error implements error.
func (e *ValidationError) Error() string {
	if e.LSN != 0 {
		return fmt.Sprintf("wlog: %s violated at lsn=%d: %s", e.Cond, e.LSN, e.Msg)
	}
	return fmt.Sprintf("wlog: %s violated: %s", e.Cond, e.Msg)
}

// Unwrap lets errors.Is match ErrInvalidLog.
func (e *ValidationError) Unwrap() error { return ErrInvalidLog }

// Log is a workflow log per Definition 2: a finite set of log records. The
// in-memory representation keeps the records sorted by lsn, realizing the
// paper's convention of viewing a log as a sequence in ascending lsn order.
//
// A Log is immutable once constructed; all mutation goes through Builder or
// Append (which returns a new Log).
type Log struct {
	records []Record
}

// New constructs a Log from records (in any order), sorts them by lsn, and
// validates every Definition 2 condition. The input slice is copied.
func New(records []Record) (*Log, error) {
	l := newUnchecked(records)
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return l, nil
}

// MustNew is New, panicking on validation failure. For tests and fixtures.
func MustNew(records []Record) *Log {
	l, err := New(records)
	if err != nil {
		panic(err)
	}
	return l
}

// newUnchecked copies and sorts the records without validating.
func newUnchecked(records []Record) *Log {
	rs := make([]Record, len(records))
	copy(rs, records)
	sort.Slice(rs, func(i, j int) bool { return rs[i].LSN < rs[j].LSN })
	return &Log{records: rs}
}

// Len returns |L|, the number of log records.
func (l *Log) Len() int { return len(l.records) }

// Record returns the i-th record in lsn order (0-based).
func (l *Log) Record(i int) Record { return l.records[i] }

// Records returns a copy of the records in ascending lsn order.
func (l *Log) Records() []Record {
	out := make([]Record, len(l.records))
	copy(out, l.records)
	return out
}

// ByLSN returns the record with the given log sequence number. Valid logs
// have dense lsns starting at 1, so this is a direct index.
func (l *Log) ByLSN(lsn uint64) (Record, bool) {
	if lsn == 0 || lsn > uint64(len(l.records)) {
		return Record{}, false
	}
	r := l.records[lsn-1]
	if r.LSN != lsn { // defensive: only possible on unchecked logs
		for _, cand := range l.records {
			if cand.LSN == lsn {
				return cand, true
			}
		}
		return Record{}, false
	}
	return r, true
}

// WIDs returns the distinct workflow instance ids present in the log, in
// ascending order.
func (l *Log) WIDs() []uint64 {
	seen := make(map[uint64]struct{})
	var ids []uint64
	for _, r := range l.records {
		if _, ok := seen[r.WID]; !ok {
			seen[r.WID] = struct{}{}
			ids = append(ids, r.WID)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Instance returns the records of one workflow instance in ascending is-lsn
// order (which coincides with lsn order in a valid log).
func (l *Log) Instance(wid uint64) []Record {
	var out []Record
	for _, r := range l.records {
		if r.WID == wid {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// InstanceComplete reports whether the instance has an END record.
func (l *Log) InstanceComplete(wid uint64) bool {
	for _, r := range l.records {
		if r.WID == wid && r.IsEnd() {
			return true
		}
	}
	return false
}

// Activities returns the distinct activity names appearing in the log, in
// sorted order (START/END included).
func (l *Log) Activities() []string {
	seen := make(map[string]struct{})
	var names []string
	for _, r := range l.records {
		if _, ok := seen[r.Activity]; !ok {
			seen[r.Activity] = struct{}{}
			names = append(names, r.Activity)
		}
	}
	sort.Strings(names)
	return names
}

// Append returns a new Log consisting of l followed by more records; the
// result is validated. l itself is unchanged.
func (l *Log) Append(more ...Record) (*Log, error) {
	rs := make([]Record, 0, len(l.records)+len(more))
	rs = append(rs, l.records...)
	rs = append(rs, more...)
	return New(rs)
}

// Validate checks the four conditions of Definition 2 and returns the first
// violation found (as a *ValidationError wrapping ErrInvalidLog), or nil.
// Records are kept sorted by lsn, so condition 1 — lsn values are a bijection
// with 1..|L| — is the same ascending-by-one test Check makes.
func (l *Log) Validate() error {
	_, err := Check(nil, l.records)
	return err
}

// Tail is what Check reads of the log records are appended to: its newest
// lsn, and of an instance only its last record, as that record's is-lsn and
// whether it is the instance's END (0 and false when the wid is absent).
// colstore.Store and colstore.Builder satisfy it.
type Tail interface {
	LastLSN() uint64
	InstanceTail(wid uint64) (lastSeq uint64, ended bool)
}

// Check checks recs, in order, as the continuation of the log base ends (nil:
// the empty log) against the four conditions of Definition 2, and returns how
// many of them form a valid prefix. When that is not all of them, the error
// is the first violation, a *ValidationError wrapping ErrInvalidLog, and
// recs[n] is the record it names. It is the one Definition 2 check: Validate
// is Check over the empty log, and a live append is checked by it against the
// version it extends. Check reads base and recs and writes neither.
func Check(base Tail, recs []Record) (int, error) {
	type instState struct {
		nextSeq uint64 // is-lsn the next record of this instance must carry
		ended   bool
	}
	states := make(map[uint64]instState)
	var lastLSN uint64
	if base != nil {
		lastLSN = base.LastLSN()
	}
	for n, r := range recs {
		// Condition 1: lsns are dense, so each is the one after its
		// predecessor's.
		if r.LSN != lastLSN+1 {
			return n, violation(CondDenseLSN, r, "expected lsn %d, found %d", lastLSN+1, r.LSN)
		}
		st, ok := states[r.WID]
		if !ok {
			st = instState{nextSeq: 1}
			if base != nil {
				last, ended := base.InstanceTail(r.WID)
				st = instState{nextSeq: last + 1, ended: ended}
			}
		}
		// Condition 4: nothing follows END within an instance.
		if st.ended {
			return n, violation(CondEndLast, r, "record for wid=%d after its END record", r.WID)
		}
		// Condition 2: is-lsn = 1 iff START.
		if (r.Seq == 1) != r.IsStart() {
			return n, violation(CondStartFirst, r, "is-lsn=%d with activity %q (START iff is-lsn=1)", r.Seq, r.Activity)
		}
		// Condition 3: is-lsn values are consecutive, in lsn order.
		if r.Seq != st.nextSeq {
			return n, violation(CondConsecutiveSeq, r, "wid=%d expected is-lsn %d, found %d", r.WID, st.nextSeq, r.Seq)
		}
		// START/END records must carry empty maps (Section 2).
		if (r.IsStart() || r.IsEnd()) && (len(r.In) != 0 || len(r.Out) != 0) {
			return n, violation(CondStartFirst, r, "%s record with non-empty attribute maps", r.Activity)
		}
		lastLSN = r.LSN
		states[r.WID] = instState{nextSeq: st.nextSeq + 1, ended: r.IsEnd()}
	}
	return len(recs), nil
}

func violation(c Condition, r Record, format string, args ...any) error {
	return &ValidationError{Cond: c, LSN: r.LSN, Msg: fmt.Sprintf(format, args...)}
}

// Equal reports whether two logs contain equal records in the same order.
func (l *Log) Equal(other *Log) bool {
	if l.Len() != other.Len() {
		return false
	}
	for i := range l.records {
		if !l.records[i].Equal(other.records[i]) {
			return false
		}
	}
	return true
}

// String renders the log as a Figure 3-style table.
func (l *Log) String() string {
	var sb strings.Builder
	sb.WriteString("lsn\twid\tis-lsn\tactivity\tαin\tαout\n")
	for _, r := range l.records {
		fmt.Fprintf(&sb, "%d\t%d\t%d\t%s\t%s\t%s\n",
			r.LSN, r.WID, r.Seq, r.Activity, r.In, r.Out)
	}
	return sb.String()
}
