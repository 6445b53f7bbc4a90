package colstore

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"wlq/internal/core/pattern"
	"wlq/internal/predicate"
	"wlq/internal/wlog"
)

// sameValue is Value.Equal, except that floats compare by their bits, so
// NaN equals itself and -0 differs from 0.
func sameValue(v, w wlog.Value) bool {
	if f, ok := v.FloatVal(); ok {
		g, ok := w.FloatVal()
		return ok && math.Float64bits(f) == math.Float64bits(g)
	}
	return v.Kind() == w.Kind() && v.Equal(w)
}

// sameMap is AttrMap.Equal by sameValue, which also tells a nil map from an
// empty one.
func sameMap(m, n wlog.AttrMap) bool {
	if (m == nil) != (n == nil) || len(m) != len(n) {
		return false
	}
	for k, v := range m {
		if w, ok := n[k]; !ok || !sameValue(v, w) {
			return false
		}
	}
	return true
}

// TestAttrRoundTrip stores one record per map shape and value kind and reads
// every record back, and every attribute in place on every side, from a
// store built in bulk and from one appended a record at a time.
func TestAttrRoundTrip(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_dead_beef_0001) // a NaN with a payload
	values := []wlog.Value{
		wlog.Undefined(), wlog.String(""), wlog.String("héllo, 世界 — ∅"),
		wlog.String(strings.Repeat("long value ", 1000)),
		wlog.Int(math.MinInt64), wlog.Int(math.MaxInt64), wlog.Int(0), wlog.Int(-1),
		wlog.Float(math.Copysign(0, -1)), wlog.Float(0), wlog.Float(math.Inf(1)),
		wlog.Float(math.Inf(-1)), wlog.Float(nan), wlog.Float(math.NaN()), wlog.Float(1.5e-300),
		wlog.Bool(true), wlog.Bool(false),
	}
	shapes := [][2]wlog.AttrMap{
		{nil, nil},
		{nil, {}},
		{{}, nil},
		{{}, {}},
		{{"k": wlog.Int(1)}, {"k": wlog.String("out")}}, // one key on both sides
		{{"in only": wlog.Bool(true)}, nil},
		{nil, {"out only": wlog.Undefined()}},
	}
	for i, v := range values {
		shapes = append(shapes, [2]wlog.AttrMap{{"v": v, "i": wlog.Int(int64(i))}, {"v": v}})
	}
	var b wlog.Builder
	wid := b.Start()
	for _, sh := range shapes {
		if err := b.Emit(wid, "A", sh[0], sh[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.End(wid); err != nil {
		t.Fatal(err)
	}
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	one := new(Store)
	for _, r := range l.Records() {
		one = one.Append(r)
	}
	for name, st := range map[string]*Store{"bulk": Build(l), "appended": one} {
		inst := st.Instance(wid)
		if len(inst) != l.Len() {
			t.Fatalf("%s: %d records, want %d", name, len(inst), l.Len())
		}
		for k, want := range l.Records() {
			got, ok := st.Record(wid, want.Seq)
			if !ok || got.LSN != want.LSN || got.Activity != want.Activity ||
				!sameMap(got.In, want.In) || !sameMap(got.Out, want.Out) {
				t.Errorf("%s: Record(%d) = %v, want %v", name, want.Seq, got, want)
			}
			if g := inst[k]; !sameMap(g.In, want.In) || !sameMap(g.Out, want.Out) {
				t.Errorf("%s: Instance[%d] = %v, want %v", name, k, g, want)
			}
			for _, attr := range []string{"k", "v", "i", "in only", "out only", "absent"} {
				key, known := st.ResolveAttr(attr)
				for _, side := range []predicate.Side{0, predicate.SideAny, predicate.SideIn, predicate.SideOut} {
					wv, wok := predicate.Lookup(want, side, attr)
					var gv wlog.Value
					gok := false
					if pos, ok := st.Position(wid); known && ok {
						gv, gok = st.AttrAt(pos, want.Seq, key, side)
					}
					if gok != wok || wok && !sameValue(gv, wv) {
						t.Errorf("%s: Attr(seq %d, %q, %v) = %v, %v; want %v, %v", name, want.Seq, attr, side, gv, gok, wv, wok)
					}
				}
			}
		}
	}
}

// withAttrs gives every record of a log that may carry attributes (all but
// START and END) a few drawn from a small set of names and values, so the
// differential runs read attributes too.
func withAttrs(rng *rand.Rand, l *wlog.Log) *wlog.Log {
	pick := func() wlog.AttrMap {
		if rng.Intn(4) == 0 {
			return nil
		}
		m := wlog.AttrMap{}
		for range rng.Intn(3) {
			m[[]string{"x", "y", "z"}[rng.Intn(3)]] = []wlog.Value{
				wlog.Int(int64(rng.Intn(5))), wlog.Float(float64(rng.Intn(5)) / 2),
				wlog.String([]string{"a", "b", ""}[rng.Intn(3)]), wlog.Bool(rng.Intn(2) == 0),
				wlog.Undefined(),
			}[rng.Intn(5)]
		}
		return m
	}
	recs := l.Records()
	for i := range recs {
		if !recs[i].IsStart() && !recs[i].IsEnd() {
			recs[i].In, recs[i].Out = pick(), pick()
		}
	}
	return wlog.MustNew(recs)
}

// withGuards puts a random guard on some atoms of a pattern, over the names
// and values withAttrs draws from plus one no record carries.
func withGuards(rng *rand.Rand, p pattern.Node) pattern.Node {
	switch p := p.(type) {
	case *pattern.Atom:
		if rng.Intn(2) == 0 {
			return p
		}
		g := predicate.Guard{
			Side:  []predicate.Side{predicate.SideAny, predicate.SideIn, predicate.SideOut}[rng.Intn(3)],
			Attr:  []string{"x", "y", "z", "w"}[rng.Intn(4)],
			Op:    predicate.Op(1 + rng.Intn(int(predicate.OpDefined))),
			Value: []wlog.Value{wlog.Int(2), wlog.Float(1.5), wlog.String("a"), wlog.Bool(true)}[rng.Intn(4)],
		}
		return &pattern.Atom{Activity: p.Activity, Negated: p.Negated, Guards: []predicate.Guard{g}}
	case *pattern.Binary:
		return &pattern.Binary{Op: p.Op, Left: withGuards(rng, p.Left), Right: withGuards(rng, p.Right)}
	}
	return p
}
