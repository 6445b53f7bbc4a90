package colstore

import (
	"encoding/binary"
	"math"
	"unsafe"

	"wlq/internal/predicate"
	"wlq/internal/wlog"
)

// A record's two attribute maps are one run of arena bytes, reached through
// the record's attr offsets. The run is empty when both maps are nil;
// otherwise it is αin then αout, each a uvarint of its size plus one (0: a
// nil map) followed by its entries in map order. An entry is a uvarint of
// key<<3 | kind, where key is the attribute name's symbol in the store's key
// table and kind its wlog.Kind, then the value's payload:
//
//	⊥       nothing
//	string  uvarint length, then the bytes
//	int     zigzag varint
//	float   8 bytes, the IEEE 754 bits little-endian (so -0 and NaN payloads survive)
//	bool    one byte, 0 or 1
//
// A run holds no pointer, so the arena is one pointer-free allocation per
// chunk that the collector never scans.

// appendAttrs appends the run of a record's maps to the staged arena,
// interning their names into the staged key table.
func (st *staging) appendAttrs(in, out wlog.AttrMap) {
	if in != nil || out != nil {
		st.appendMap(in)
		st.appendMap(out)
	}
}

func (st *staging) appendMap(m wlog.AttrMap) {
	if m == nil {
		st.arena = append(st.arena, 0)
		return
	}
	dst := binary.AppendUvarint(st.arena, uint64(len(m))+1)
	for name, v := range m {
		kind := v.Kind()
		dst = binary.AppendUvarint(dst, uint64(st.key(name))<<3|uint64(kind))
		switch kind {
		case wlog.KindString:
			s, _ := v.Str()
			dst = binary.AppendUvarint(dst, uint64(len(s)))
			dst = append(dst, s...)
		case wlog.KindInt:
			i, _ := v.IntVal()
			dst = binary.AppendVarint(dst, i)
		case wlog.KindFloat:
			f, _ := v.FloatVal()
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
		case wlog.KindBool:
			b, _ := v.BoolVal()
			if b {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		}
	}
	st.arena = dst
}

// attrReader walks one run.
type attrReader struct {
	b []byte
	i int
}

func (r *attrReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.i:])
	r.i += n
	return v
}

// size reads a map's header: its size, and whether it is nil.
func (r *attrReader) size() (n int, isNil bool) {
	h := r.uvarint()
	return int(h) - 1, h == 0
}

// entry reads one entry. A string value aliases the run when alias is set
// and is copied otherwise.
func (r *attrReader) entry(alias bool) (key int32, v wlog.Value) {
	h := r.uvarint()
	key = int32(h >> 3)
	switch wlog.Kind(h & 7) {
	case wlog.KindString:
		n := int(r.uvarint())
		b := r.b[r.i : r.i+n]
		r.i += n
		if alias && n > 0 {
			v = wlog.String(unsafe.String(&b[0], n))
		} else {
			v = wlog.String(string(b))
		}
	case wlog.KindInt:
		i, n := binary.Varint(r.b[r.i:])
		r.i += n
		v = wlog.Int(i)
	case wlog.KindFloat:
		v = wlog.Float(math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.i:])))
		r.i += 8
	case wlog.KindBool:
		v = wlog.Bool(r.b[r.i] == 1)
		r.i++
	default:
		v = wlog.Undefined()
	}
	return key, v
}

// decodeAttrs rebuilds a record's maps from its run, names from keys.
func decodeAttrs(run []byte, keys *SymbolTable) (in, out wlog.AttrMap) {
	if len(run) == 0 {
		return nil, nil
	}
	r := attrReader{b: run}
	return r.decodeMap(keys), r.decodeMap(keys)
}

func (r *attrReader) decodeMap(keys *SymbolTable) wlog.AttrMap {
	n, isNil := r.size()
	if isNil {
		return nil
	}
	m := make(wlog.AttrMap, n)
	for range n {
		key, v := r.entry(false)
		m[keys.Name(key)] = v
	}
	return m
}

// lookupAttr finds the value of the attribute with the key on a side of a
// record's run, as predicate.Lookup does on a record: SideAny reads αout
// first, then αin. A string value aliases the run, so the lookup allocates
// nothing; the arena is never written once its version is published.
func lookupAttr(run []byte, key int32, side predicate.Side) (wlog.Value, bool) {
	if len(run) == 0 {
		return wlog.Value{}, false
	}
	r := attrReader{b: run}
	in, inOK := r.find(key, side != predicate.SideOut)
	if side == predicate.SideIn {
		return in, inOK
	}
	if out, ok := r.find(key, true); ok {
		return out, true
	}
	return in, inOK
}

// find reads one map, returning the value of the key when want is set.
func (r *attrReader) find(key int32, want bool) (v wlog.Value, ok bool) {
	n, _ := r.size()
	for range n {
		if k, w := r.entry(true); want && k == key {
			v, ok = w, true
		}
	}
	return v, ok
}
