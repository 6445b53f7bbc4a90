package wlog

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// sliceTail is the end of a log held as its records in lsn order: the Tail
// Check reads, without a store.
type sliceTail []Record

func (t sliceTail) LastLSN() uint64 {
	if len(t) == 0 {
		return 0
	}
	return t[len(t)-1].LSN
}

func (t sliceTail) InstanceTail(wid uint64) (lastSeq uint64, ended bool) {
	for _, r := range t {
		if r.WID == wid {
			lastSeq, ended = r.Seq, r.IsEnd()
		}
	}
	return lastSeq, ended
}

// recordsFrom decodes fuzz bytes into a record stream: a valid interleaving
// of instances, except where a byte asks for one of Definition 2's faults.
func recordsFrom(data []byte) []Record {
	var recs []Record
	next := make(map[uint64]uint64) // wid -> is-lsn of its next record
	var open, ended []uint64
	lsn, wid := uint64(0), uint64(0)
	for _, b := range data {
		lsn++
		r := Record{LSN: lsn}
		pick := int(b >> 3)
		switch op := b % 8; {
		case op < 2 || len(open) == 0:
			wid++
			r.WID, r.Seq, r.Activity = wid, 1, ActivityStart
			open = append(open, wid)
			next[wid] = 2
		case op < 5:
			w := open[pick%len(open)]
			r.WID, r.Seq, r.Activity = w, next[w], fmt.Sprintf("A%d", b>>6)
			next[w]++
		case op == 5:
			i := pick % len(open)
			w := open[i]
			r.WID, r.Seq, r.Activity = w, next[w], ActivityEnd
			next[w]++
			open = slices.Delete(open, i, i+1)
			ended = append(ended, w)
		default:
			w := open[pick%len(open)]
			r.WID, r.Seq, r.Activity = w, next[w], "F"
			switch pick % 6 {
			case 0: // condition 1: an lsn skipped
				r.LSN++
				lsn++
			case 1: // condition 1: an lsn repeated
				r.LSN--
			case 2: // condition 3: an is-lsn skipped
				r.Seq++
			case 3: // condition 2: START inside an instance
				r.Activity = ActivityStart
			case 4: // condition 4: a record after END
				if len(ended) > 0 {
					w = ended[pick%len(ended)]
					r.WID, r.Seq = w, next[w]
				}
			case 5: // Section 2: a START carrying attributes
				wid++
				r.WID, r.Seq, r.Activity, r.Out = wid, 1, ActivityStart, Attrs("x", 1)
			}
		}
		recs = append(recs, r)
	}
	return recs
}

// sameVerdict reports whether two Check results name the same violation.
func sameVerdict(a, b error) bool {
	var va, vb *ValidationError
	if !errors.As(a, &va) || !errors.As(b, &vb) {
		return a == nil && b == nil
	}
	return *va == *vb
}

// FuzzCheck: checking a stream in one go and checking it as the continuation
// of any valid prefix of itself give the same verdict — so a live append
// checked against the version it extends is held to exactly the conditions
// Validate applies to a whole log. Check never writes its input.
func FuzzCheck(f *testing.F) {
	f.Add([]byte{0, 2, 3, 0, 4, 5, 13, 2})
	f.Add([]byte{0, 2, 6, 3})    // an lsn skipped
	f.Add([]byte{0, 2, 14, 3})   // an lsn repeated
	f.Add([]byte{0, 2, 22, 3})   // an is-lsn skipped
	f.Add([]byte{0, 2, 30, 3})   // START inside an instance
	f.Add([]byte{0, 5, 0, 38})   // a record after END
	f.Add([]byte{0, 2, 46, 3})   // START with attributes
	f.Add([]byte{1, 1, 9, 2, 5}) // three instances, one ended
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 128 {
			data = data[:128] // every split is checked: keep a run quadratic in little
		}
		recs := recordsFrom(data)
		orig := slices.Clone(recs)
		n, err := Check(nil, recs)
		if (err == nil) != (n == len(recs)) {
			t.Fatalf("Check accepted %d of %d records with error %v", n, len(recs), err)
		}
		for k := 0; k <= len(recs); k++ {
			if pk, _ := Check(nil, recs[:k]); pk < k {
				break // no valid log ends here, nor at any later k
			}
			m, err2 := Check(sliceTail(recs[:k]), recs[k:])
			if k+m != n || !sameVerdict(err, err2) {
				t.Fatalf("split at %d: accepted %d+%d (%v), in one go %d (%v)", k, k, m, err2, n, err)
			}
		}
		for i := range recs {
			if !recs[i].Equal(orig[i]) {
				t.Fatalf("Check wrote record %d: %v, was %v", i, recs[i], orig[i])
			}
		}
	})
}

// TestCheckReportsTheValidPrefix: Check returns how many records it accepts
// and the violation of the first one it refuses, whether the log it extends
// is empty or not.
func TestCheckReportsTheValidPrefix(t *testing.T) {
	base := sliceTail{
		{LSN: 1, WID: 1, Seq: 1, Activity: ActivityStart},
		{LSN: 2, WID: 1, Seq: 2, Activity: "A"},
	}
	batch := []Record{
		{LSN: 3, WID: 2, Seq: 1, Activity: ActivityStart},
		{LSN: 4, WID: 1, Seq: 3, Activity: ActivityEnd},
		{LSN: 5, WID: 1, Seq: 4, Activity: "B"}, // after wid 1's END
		{LSN: 6, WID: 2, Seq: 2, Activity: "B"},
	}
	n, err := Check(base, batch)
	var ve *ValidationError
	if n != 2 || !errors.As(err, &ve) || ve.Cond != CondEndLast || ve.LSN != 5 {
		t.Fatalf("Check = %d, %v; want 2 and a condition 4 violation at lsn 5", n, err)
	}
	if !errors.Is(err, ErrInvalidLog) {
		t.Errorf("%v does not wrap ErrInvalidLog", err)
	}
	// The same batch against the empty log fails at once: lsn 3 is not 1.
	if n, err := Check(nil, batch); n != 0 || !errors.As(err, &ve) || ve.Cond != CondDenseLSN {
		t.Fatalf("Check over the empty log = %d, %v; want 0 and a condition 1 violation", n, err)
	}
	if n, err := Check(base, nil); n != 0 || err != nil {
		t.Fatalf("an empty batch: %d, %v", n, err)
	}
}
