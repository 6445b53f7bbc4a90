package incident

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
)

// The wire form: the one way incidents cross a wire, whether to a client
// (POST /v1/query) or from a worker to its coordinator. An incident is
//
//	{"wid":2,"seqs":[5,9]}
//
// and a list of them a compact JSON array in canonical order (Compare),
//
//	[{"wid":2,"seqs":[5,9]},{"wid":3,"seqs":[1]}]
//
// byte for byte what encoding/json writes for
// []struct{WID uint64 `json:"wid"`; Seqs []uint64 `json:"seqs"`}, written and
// read without reflection or a per-incident copy. AppendWire is its one
// writer, which a served scan calls as each instance succeeds
// (eval.Evaluator.ServeCtx); the reader is below.
//
// There is one spelling. The reader accepts exactly what AppendWire
// writes — no whitespace, "wid" before "seqs", numbers in shortest decimal
// form — so that a list that reads is the canonical bytes of its incidents,
// and a node that writes several lists as one answer (AppendArray) writes
// what one list of the whole answer would be. The reader is one scanner
// (scanner.incidents), which DecodeIncidents, IncidentWIDs and a worker
// reply's reader (ScanList) all go through. It checks every byte and every
// incident; nothing is sampled or trusted.
//
// An answer's incidents in wire form are lists in canonical order one after
// another: one per scan goroutine on the node that evaluated them, one per
// part on a coordinator, each the bytes its worker sent. Nothing joins them
// into one slice; AppendArray writes them as one list, and CutIncidents and
// IncidentWIDs read them as one.

// AppendWire appends incs to a wire-form list and returns the extended
// buffer, which ends in the list's closing bracket: to the list dst ends in
// when dst ends in ']', or else to a new one opened after dst's bytes. So a
// list is written in pieces — one instance's run at a time — and is whole
// after each. Each incident is one element, preceded by a comma unless it is
// the list's first. The element's prefix up to its first is-lsn,
// `{"wid":W,"seqs":[`, is formatted once per run of incidents of one wid —
// once per instance, as an evaluator hands them over.
func AppendWire(dst []byte, incs []Incident) []byte {
	if n := len(dst); n > 0 && dst[n-1] == ']' {
		dst = dst[:n-1]
	} else {
		dst = append(dst, '[')
	}
	var buf [len(`{"wid":18446744073709551615,"seqs":[`)]byte
	var prefix []byte
	for i, o := range incs {
		if i == 0 || o.wid != incs[i-1].wid {
			prefix = append(strconv.AppendUint(append(buf[:0], `{"wid":`...), o.wid, 10), `,"seqs":[`...)
		}
		if dst[len(dst)-1] != '[' {
			dst = append(dst, ',')
		}
		dst = append(dst, prefix...)
		for j, s := range o.seqs {
			if j > 0 {
				dst = append(dst, ',')
			}
			// Most is-lsn values are below 100 (an instance is a few dozen
			// records long), so those are read off a table.
			switch {
			case s < 10:
				dst = append(dst, byte('0'+s))
			case s < 100:
				dst = append(dst, twoDigits[2*s], twoDigits[2*s+1])
			default:
				dst = strconv.AppendUint(dst, s, 10)
			}
		}
		dst = append(dst, ']', '}')
	}
	return append(dst, ']')
}

// twoDigits spells 0 to 99 in two digits each.
const twoDigits = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// ErrMalformedIncidents is wrapped by every error of the answer readers: the
// bytes are not the one wire form of a canonical incident list (or, in a
// worker reply, of an ascending wid list). It is deterministic — the same
// bytes read the same way — so a coordinator does not retry it.
var ErrMalformedIncidents = errors.New("malformed incidents")

// DecodeIncidents reads the wire form back, the seqs carved from one Slab.
// Anything but the bytes AppendWire writes for a canonical list — another
// spelling of the same JSON, an incident whose seqs are empty or not strictly
// increasing, incidents out of canonical order or repeated, anything after
// the list — is an error wrapping ErrMalformedIncidents. The result never
// aliases data.
func DecodeIncidents(data []byte) ([]Incident, error) {
	// Every incident opens one brace, so the count sizes the result exactly;
	// the cap keeps bytes that are mostly braces from reserving 32 times
	// their own size.
	incs := make([]Incident, 0, min(bytes.Count(data, []byte("{")), len(data)/len(`{"wid":0,"seqs":[0]}`)))
	var slab Slab
	if _, err := scanIncidentList(data, func(wid uint64, seqs []uint64) {
		incs = append(incs, slab.Copy(Adopt(wid, seqs)))
	}); err != nil {
		return nil, err
	}
	return incs, nil
}

// IncidentWIDs returns the distinct wids of an answer's lists, ascending.
// Each list must be AppendWire's bytes or have been read once already, as
// every answer array the query service holds is or was; a list that does
// not read yields the wids before the fault.
func IncidentWIDs(lists [][]byte) []uint64 {
	var wids []uint64
	for _, l := range lists {
		scanIncidentList(l, func(wid uint64, _ []uint64) {
			if len(wids) == 0 || wids[len(wids)-1] != wid {
				wids = append(wids, wid)
			}
		})
	}
	return wids
}

// CutIncidents returns the first n incidents of an answer's lists, which
// hold at least n: the lists before the one the n-th incident ends in, as
// they stand, then that one's first incidents as a list of its own, in a new
// slice. An incident is an object with no object inside it, so a list's
// closing braces count its incidents.
func CutIncidents(lists [][]byte, n int) [][]byte {
	for i, l := range lists {
		end := 1
		for ; n > 0; n-- {
			k := bytes.IndexByte(l[end:], '}')
			if k < 0 {
				break
			}
			end += k + 1
		}
		if n == 0 {
			return append(lists[:i:i], append(l[:end:end], ']'))
		}
	}
	return lists
}

// AppendArray appends to pieces the byte slices that, written in order,
// are the answer's lists as one: '[', each non-empty list's elements with a
// comma between lists, then ']' — ArrayLen bytes in all. The elements are
// not copied.
func AppendArray(pieces, lists [][]byte) [][]byte {
	pieces = append(pieces, listOpen)
	sep := false
	for _, l := range lists {
		if len(l) <= len("[]") {
			continue
		}
		if sep {
			pieces = append(pieces, listSep)
		}
		pieces, sep = append(pieces, l[1:len(l)-1]), true
	}
	return append(pieces, listClose)
}

// ArrayLen is the length of the one list AppendArray writes the lists as.
func ArrayLen(lists [][]byte) int {
	n, sep := len("[]"), 0
	for _, l := range lists {
		if len(l) > len("[]") {
			n, sep = n+sep+len(l)-len("[]"), len(",")
		}
	}
	return n
}

// The punctuation AppendArray writes around and between an answer's lists.
var listOpen, listSep, listClose = []byte("["), []byte(","), []byte("]")

// ListSummary is what reading an answer array learns besides its elements:
// how many there are, and the wids of the first and the last (zero when
// there are none).
type ListSummary struct {
	N           int
	First, Last uint64
}

// ScanList reads the incident list at data[pos:], which other bytes may
// follow, as DecodeIncidents would, and returns what it learned and the
// index after the list. An error wraps ErrMalformedIncidents and names the
// offset in data it lies at.
func ScanList(data []byte, pos int) (ListSummary, int, error) {
	s := scanner{data: data, pos: pos}
	sum, err := s.incidents(nil)
	if err != nil {
		return ListSummary{}, s.pos, s.malformed(err)
	}
	return sum, s.pos, nil
}

// ScanWIDs reads the wid list at data[pos:], strictly ascending, which other
// bytes may follow, into a new slice (nil when empty), and returns it and
// the index after the list. An error wraps ErrMalformedIncidents and names
// the offset in data it lies at.
func ScanWIDs(data []byte, pos int) ([]uint64, int, error) {
	s := scanner{data: data, pos: pos}
	wids, err := s.wids()
	if err != nil {
		return nil, s.pos, s.malformed(err)
	}
	return wids, s.pos, nil
}

// scanIncidentList reads data as one incident list and nothing after it,
// calling emit, when non-nil, with each incident in order.
func scanIncidentList(data []byte, emit func(wid uint64, seqs []uint64)) (ListSummary, error) {
	s := scanner{data: data}
	sum, err := s.incidents(emit)
	if err == nil && s.pos < len(data) {
		err = errors.New("data after the closing bracket")
	}
	if err != nil {
		return ListSummary{}, s.malformed(err)
	}
	return sum, nil
}

// scanner is a cursor over bytes in the one wire grammar.
type scanner struct {
	data []byte
	pos  int
}

// malformed places err at the cursor, under ErrMalformedIncidents.
func (s *scanner) malformed(err error) error {
	return fmt.Errorf("%w at offset %d: %v", ErrMalformedIncidents, s.pos, err)
}

// lit consumes lit if that is what comes next.
func (s *scanner) lit(lit string) bool {
	if len(s.data)-s.pos < len(lit) || string(s.data[s.pos:s.pos+len(lit)]) != lit {
		return false
	}
	s.pos += len(lit)
	return true
}

// want is lit for what must come next.
func (s *scanner) want(lit string) error {
	if !s.lit(lit) {
		return fmt.Errorf("want %q", lit)
	}
	return nil
}

// The eight-byte words the incident reader compares in one load: an
// incident's opening with the byte before it — the list's '[' before the
// first, a ',' before every other — and the seqs member's key with the comma
// before it, which its '[' follows.
var (
	wordFirst = binary.LittleEndian.Uint64([]byte(`[{"wid":`))
	wordNext  = binary.LittleEndian.Uint64([]byte(`,{"wid":`))
	wordSeqs  = binary.LittleEndian.Uint64([]byte(`,"seqs":`))
)

// number reads an unsigned 64-bit integer in shortest decimal form at
// data[i:], returning it and the index after its digits, or the error and
// the index it lies at.
func number(data []byte, i int) (uint64, int, error) {
	start, v := i, uint64(0)
	// Nineteen digits cannot overflow, so they are summed with no test.
	for end := min(len(data), i+19); i < end; i++ {
		c := data[i] - '0'
		if c > 9 {
			break
		}
		v = v*10 + uint64(c)
	}
	if i-start == 19 {
		// A twentieth digit may overflow, and so may every one after it.
		for ; i < len(data); i++ {
			c := data[i] - '0'
			if c > 9 {
				break
			}
			if v > (math.MaxUint64-uint64(c))/10 {
				return 0, i, errors.New("number overflows uint64")
			}
			v = v*10 + uint64(c)
		}
	}
	switch n := i - start; {
	case n == 0:
		return 0, i, errors.New("want an unsigned integer")
	case n > 1 && data[start] == '0':
		return 0, i, errors.New("number has a leading zero")
	}
	return v, i, nil
}

// incidents reads one incident list, checking Definition 4 (seqs non-empty
// and strictly increasing) and the canonical order as it goes, and calls
// emit, when non-nil, with each incident; seqs is valid only during the call.
// The seqs of the incident before and of the one being read live in two
// buffers that trade places, so a list of any length costs two small
// allocations.
//
// It is one loop over a local cursor: an incident's opening and its seqs key
// are each one word compared (and a '[' after the key), and every other
// token is one byte. It reads the grammar the literals below spell, and on a
// mismatch names the literal it wanted.
func (s *scanner) incidents(emit func(wid uint64, seqs []uint64)) (sum ListSummary, err error) {
	data, pos := s.data, s.pos
	if len(data)-pos < 8 || binary.LittleEndian.Uint64(data[pos:]) != wordFirst {
		// No first incident: the list is empty, or is no list.
		switch {
		case pos == len(data) || data[pos] != '[':
			err = errors.New(`want "["`)
		case pos+1 < len(data) && data[pos+1] == ']':
			pos += len("[]")
		default:
			pos, err = pos+1, errors.New(`want "{\"wid\":"`)
		}
		s.pos = pos
		return sum, err
	}
	pos += len(`[{"wid":`)
	// Room for incidents of up to eight records each, in one allocation.
	seqs := make([]uint64, 16)
	prev, cur := seqs[:0:8], seqs[8:8]
	for {
		// An incident, from after its `{"wid":`.
		var wid uint64
		if wid, pos, err = number(data, pos); err != nil {
			break
		}
		if len(data)-pos < len(`,"seqs":[`) || binary.LittleEndian.Uint64(data[pos:]) != wordSeqs || data[pos+8] != '[' {
			err = errors.New(`want ",\"seqs\":["`)
			break
		}
		pos += len(`,"seqs":[`)
		if pos < len(data) && data[pos] == ']' {
			err = errors.New("empty incident")
			break
		}
		cur = cur[:0]
		for {
			var v uint64
			if v, pos, err = number(data, pos); err != nil {
				break
			}
			if n := len(cur); n > 0 && v <= cur[n-1] {
				err = fmt.Errorf("is-lsn %d after %d: not strictly increasing", v, cur[n-1])
				break
			}
			cur = append(cur, v)
			if pos < len(data) && data[pos] == ',' {
				pos++
				continue
			}
			if len(data)-pos < len("]}") || data[pos] != ']' || data[pos+1] != '}' {
				err = errors.New(`want ',' or "]}"`)
				break
			}
			pos += len("]}")
			break
		}
		if err != nil {
			break
		}
		// Canonical order is wid order first, then first record: only a
		// wid's second incident that does not start later needs the whole
		// comparison.
		if sum.N > 0 && wid <= sum.Last && (wid < sum.Last || cur[0] <= prev[0]) {
			if p, o := Adopt(sum.Last, prev), Adopt(wid, cur); p.Compare(o) >= 0 {
				err = fmt.Errorf("%v does not follow %v in canonical order", o, p)
				break
			}
		}
		if emit != nil {
			emit(wid, cur)
		}
		if sum.N == 0 {
			sum.First = wid
		}
		sum.N++
		sum.Last = wid
		prev, cur = cur, prev
		if len(data)-pos >= 8 && binary.LittleEndian.Uint64(data[pos:]) == wordNext {
			pos += len(`,{"wid":`)
			continue
		}
		switch {
		case pos < len(data) && data[pos] == ']':
			pos++
		case pos < len(data) && data[pos] == ',':
			pos, err = pos+1, errors.New(`want "{\"wid\":"`)
		default:
			err = errors.New(`want ',' or "]"`)
		}
		break
	}
	s.pos = pos
	return sum, err
}

// wids reads a wid list, strictly ascending, into a new slice.
func (s *scanner) wids() ([]uint64, error) {
	if err := s.want("["); err != nil {
		return nil, err
	}
	if s.lit("]") {
		return nil, nil
	}
	// The first ']' ends a list of numbers: size the result by its commas.
	var dst []uint64
	if end := bytes.IndexByte(s.data[s.pos:], ']'); end > 0 {
		dst = make([]uint64, 0, bytes.Count(s.data[s.pos:s.pos+end], []byte(","))+1)
	}
	for {
		v, pos, err := number(s.data, s.pos)
		s.pos = pos
		if err != nil {
			return nil, err
		}
		if n := len(dst); n > 0 && v <= dst[n-1] {
			return nil, fmt.Errorf("wids %d, %d not ascending", dst[n-1], v)
		}
		dst = append(dst, v)
		if s.lit(",") {
			continue
		}
		if s.lit("]") {
			return dst, nil
		}
		return nil, errors.New(`want ',' or "]"`)
	}
}
