package incident

import "strconv"

// The wire form of an incident list is the compact JSON array
//
//	[{"wid":2,"seqs":[5,9]},{"wid":3,"seqs":[1]}]
//
// in canonical order: byte for byte what encoding/json writes for
// []struct{WID uint64 `json:"wid"`; Seqs []uint64 `json:"seqs"`}. AppendWire
// is its one writer; the reader, which accepts exactly these bytes, is
// internal/cluster's.

// AppendWire appends incs to dst, a wire-form list being written, and
// returns the extended buffer. Each incident is one element, preceded by a
// comma unless dst is empty or ends in the list's opening bracket; the
// caller writes the brackets. The element's prefix up to its first is-lsn,
// `{"wid":W,"seqs":[`, is formatted once per run of incidents of one wid —
// once per instance, as an evaluator hands them over.
func AppendWire(dst []byte, incs []Incident) []byte {
	var buf [len(`{"wid":18446744073709551615,"seqs":[`)]byte
	var prefix []byte
	for i, o := range incs {
		if i == 0 || o.wid != incs[i-1].wid {
			prefix = append(strconv.AppendUint(append(buf[:0], `{"wid":`...), o.wid, 10), `,"seqs":[`...)
		}
		if n := len(dst); n > 0 && dst[n-1] != '[' {
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
	return dst
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
