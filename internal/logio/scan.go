package logio

import (
	"math"
	"unicode/utf8"

	"wlq/internal/wlog"
)

// scanRecord reads one FormatJSONL line in a single pass, without
// reflection or an intermediate map[string]string, and returns the record
// unmarshalRecord would return for it. ok is false for a line it does not
// read; the caller hands that line to unmarshalRecord, which gives the
// record or the error encoding/json makes of it. It reads an object with
// the keys lsn, wid and seq (decimal digits, no leading zero, fitting in
// uint64), act (a string), and in and out (objects of string to string),
// in any order and each at most once, with JSON whitespace between tokens.
// Anything else falls back: another key or one in other case, a repeated
// key, null, a number with a sign, fraction, exponent or leading zero or
// one that overflows, a \u escape or invalid UTF-8 in a string (encoding/json
// rewrites the latter to U+FFFD), bytes after the object, and an attribute
// value wlog.ParseValue refuses (so that the error names the attribute).
//
// FuzzDecodeRecord holds the two together: whatever scanRecord reads,
// unmarshalRecord reads without error as an equal record, each attribute
// map nil exactly when scanRecord's is.
func scanRecord(line []byte, names nameTable) (r wlog.Record, ok bool) {
	s := scanner{b: line, names: names}
	s.space()
	if !s.consume('{') {
		return r, false
	}
	s.space()
	if !s.consume('}') {
		var seen uint8
		for {
			key, ok := s.str()
			if !ok {
				return r, false
			}
			field := fieldBit(key)
			if field == 0 || seen&field != 0 {
				return r, false
			}
			seen |= field
			s.space()
			if !s.consume(':') {
				return r, false
			}
			s.space()
			switch field {
			case fieldLSN:
				r.LSN, ok = s.uint()
			case fieldWID:
				r.WID, ok = s.uint()
			case fieldSeq:
				r.Seq, ok = s.uint()
			case fieldAct:
				var act []byte
				act, ok = s.str()
				r.Activity = s.names.intern(act)
			case fieldIn:
				r.In, ok = s.attrs()
			case fieldOut:
				r.Out, ok = s.attrs()
			}
			if !ok {
				return r, false
			}
			s.space()
			if s.consume('}') {
				break
			}
			if !s.consume(',') {
				return r, false
			}
			s.space()
		}
	}
	s.space()
	return r, s.i == len(s.b)
}

// The keys of jsonRecord, one bit each.
const (
	fieldLSN uint8 = 1 << iota
	fieldWID
	fieldSeq
	fieldAct
	fieldIn
	fieldOut
)

// fieldBit returns the bit of a key spelled exactly as jsonRecord's tags
// spell it, or 0.
func fieldBit(key []byte) uint8 {
	switch string(key) {
	case "lsn":
		return fieldLSN
	case "wid":
		return fieldWID
	case "seq":
		return fieldSeq
	case "act":
		return fieldAct
	case "in":
		return fieldIn
	case "out":
		return fieldOut
	}
	return 0
}

// nameTable keeps one string per distinct activity or attribute name a
// Reader has read, so that a file's few names are allocated once, not once
// per record. It holds at most maxNames; a nil table keeps none.
type nameTable map[string]string

const maxNames = 4096

func (t nameTable) intern(b []byte) string {
	if s, ok := t[string(b)]; ok {
		return s
	}
	s := string(b)
	if t != nil && len(t) < maxNames {
		t[s] = s
	}
	return s
}

// scanner is scanRecord's position in the line.
type scanner struct {
	b     []byte
	i     int
	buf   []byte // a string's decoded bytes, when it holds an escape
	names nameTable
}

func (s *scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

func (s *scanner) consume(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// uint reads a JSON number that is a uint64 in decimal, with no leading
// zero. What follows it is the caller's to check, so a sign, fraction or
// exponent makes the line fall back there.
func (s *scanner) uint() (uint64, bool) {
	start := s.i
	var n uint64
	for ; s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9'; s.i++ {
		d := uint64(s.b[s.i] - '0')
		if n > (math.MaxUint64-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	digits := s.i - start
	return n, digits == 1 || digits > 1 && s.b[start] != '0'
}

// unescape maps the byte after a backslash to the byte it stands for, for
// the escapes str decodes; 0 for the others.
var unescape = [256]byte{
	'"': '"', '\\': '\\', '/': '/',
	'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t',
}

// str reads a JSON string and returns its decoded bytes: a slice of the
// line when it holds no escape, else s.buf, which the next call reuses.
func (s *scanner) str() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	start, ascii, escaped := s.i, true, false
	s.buf = s.buf[:0]
	for ; s.i < len(s.b); s.i++ {
		c := s.b[s.i]
		switch {
		case c == '"':
			raw := s.b[start:s.i]
			s.i++
			// Escapes are ASCII, so the raw bytes are valid UTF-8 exactly
			// when the decoded ones are.
			if !ascii && !utf8.Valid(raw) {
				return nil, false
			}
			if escaped {
				return s.buf, true
			}
			return raw, true
		case c == '\\':
			if !escaped {
				s.buf = append(s.buf, s.b[start:s.i]...)
				escaped = true
			}
			if s.i++; s.i == len(s.b) || unescape[s.b[s.i]] == 0 {
				return nil, false
			}
			c = unescape[s.b[s.i]]
		case c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
		if escaped {
			s.buf = append(s.buf, c)
		}
	}
	return nil, false
}

// attrs reads an object of string to string as an attribute map, each
// value through wlog.ParseValue; an empty object is the nil map, as
// attrsFromWire makes it. A repeated name keeps its last value, as
// encoding/json keeps it.
func (s *scanner) attrs() (wlog.AttrMap, bool) {
	if !s.consume('{') {
		return nil, false
	}
	s.space()
	if s.consume('}') {
		return nil, true
	}
	m := make(wlog.AttrMap)
	for {
		key, ok := s.str()
		if !ok {
			return nil, false
		}
		name := s.names.intern(key)
		s.space()
		if !s.consume(':') {
			return nil, false
		}
		s.space()
		raw, ok := s.str()
		if !ok {
			return nil, false
		}
		v, err := wlog.ParseValue(string(raw))
		if err != nil {
			return nil, false
		}
		m[name] = v
		s.space()
		if s.consume('}') {
			return m, true
		}
		if !s.consume(',') {
			return nil, false
		}
		s.space()
	}
}
