package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestTraceIDMintedOnceAndPinnable(t *testing.T) {
	tr := NewTrace("q")
	id := tr.ID()
	if len(id) != 32 {
		t.Fatalf("trace id %q, want 32 hex chars", id)
	}
	if tr.ID() != id {
		t.Fatal("trace id changed between calls")
	}
	other := NewTrace("q")
	if other.ID() == id {
		t.Fatal("two traces minted the same id")
	}

	pinned := NewTrace("worker")
	pinned.SetID("deadbeefdeadbeefdeadbeefdeadbeef")
	if got := pinned.ID(); got != "deadbeefdeadbeefdeadbeefdeadbeef" {
		t.Fatalf("pinned id = %q", got)
	}
	// Pinning after lazy minting overrides: the propagated id wins.
	late := NewTrace("worker")
	_ = late.ID()
	late.SetID("cafecafecafecafecafecafecafecafe")
	if got := late.ID(); got != "cafecafecafecafecafecafecafecafe" {
		t.Fatalf("late-pinned id = %q", got)
	}

	var nilTrace *Trace
	if nilTrace.ID() != "" {
		t.Fatal("nil trace must report an empty id")
	}
	nilTrace.SetID("x") // must not panic
}

func TestTraceparentRoundTrip(t *testing.T) {
	tid, sid := NewTraceID(), NewSpanID()
	if len(tid) != 32 || len(sid) != 16 {
		t.Fatalf("id widths %d/%d, want 32/16", len(tid), len(sid))
	}
	header := FormatTraceparent(tid, sid)
	if !strings.HasPrefix(header, "00-") || !strings.HasSuffix(header, "-01") {
		t.Fatalf("header %q not in 00-...-01 shape", header)
	}
	gotTID, gotSID, ok := ParseTraceparent(header)
	if !ok || gotTID != tid || gotSID != sid {
		t.Fatalf("round trip = (%q, %q, %v), want (%q, %q, true)", gotTID, gotSID, ok, tid, sid)
	}
}

func TestTraceparentRejectsMalformedValues(t *testing.T) {
	bad := []string{
		"",
		"garbage",
		"00-shorttrace-0123456789abcdef-01",
		"00-0123456789abcdef0123456789abcdef-short-01",
		"00-" + strings.Repeat("0", 32) + "-0123456789abcdef-01",                 // all-zero trace id
		"00-0123456789abcdef0123456789abcdef-" + strings.Repeat("0", 16) + "-01", // all-zero span id
		"0123456789abcdef0123456789abcdef",
	}
	for _, v := range bad {
		if _, _, ok := ParseTraceparent(v); ok {
			t.Errorf("ParseTraceparent(%q) accepted a malformed value", v)
		}
	}
}

// wireTree simulates a worker subtree arriving over HTTP: built in one
// trace, serialized, decoded into spans with no trace pointer.
func wireTree(t *testing.T, build func(tr *Trace)) *Span {
	t.Helper()
	tr := NewTrace("worker")
	build(tr)
	tr.End()
	b, err := json.Marshal(tr.Root())
	if err != nil {
		t.Fatal(err)
	}
	var s Span
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return &s
}

func TestGraftAdoptsWireSubtree(t *testing.T) {
	sub := wireTree(t, func(tr *Trace) {
		sp := tr.StartSpan("eval")
		sp.StartChild("atom").End()
		sp.End()
	})
	childStart := sub.Children[0].StartUS

	local := NewTrace("query")
	transport := local.StartSpan("transport")
	transport.End()
	Graft(transport, sub, 500)

	if len(transport.Children) != 1 || transport.Children[0] != sub {
		t.Fatal("subtree not attached under the transport span")
	}
	if sub.StartUS != 500 {
		t.Fatalf("grafted root StartUS = %d, want the 500µs offset", sub.StartUS)
	}
	if got := sub.Children[0].StartUS; got != childStart+500 {
		t.Fatalf("grafted child StartUS = %d, want %d (shifted by the offset)", got, childStart+500)
	}
	// Adopted spans are finished members of the local trace: End and
	// SetAttr must be safe on them (they now carry a trace pointer), End
	// must not restart the duration clock, and the stitched tree must
	// marshal.
	wantDur := sub.DurationUS
	sub.End()
	if sub.DurationUS != wantDur {
		t.Fatalf("End on an adopted span rewrote its duration: %d -> %d", wantDur, sub.DurationUS)
	}
	sub.SetAttr("annotation", true)
	local.End()
	if _, err := json.Marshal(local.Root()); err != nil {
		t.Fatalf("stitched trace does not marshal: %v", err)
	}
}

func TestStampWorkerFillsOnlyBlankAttribution(t *testing.T) {
	root := wireTree(t, func(tr *Trace) {
		tr.StartSpan("eval").End()
	})
	StampWorker(root, "http://w1")
	StampWorker(root, "coordinator") // second stamp must not overwrite
	if root.Worker != "http://w1" || root.Children[0].Worker != "http://w1" {
		t.Fatalf("worker stamps = %q/%q, want http://w1 on both", root.Worker, root.Children[0].Worker)
	}
	StampWorker(nil, "x") // must not panic
}

func TestAggregateCostTablesSumsAlignedRows(t *testing.T) {
	mk := func(scale uint64) []CostRow {
		return []CostRow{
			{Node: "A -> B", Op: "sequential", N1: 10 * scale, N2: 20 * scale,
				Comparisons: 30 * scale, Outputs: 5 * scale, Predicted: 200 * scale,
				Evals: 2 * scale, MemoHits: scale, K1: 1, K2: 1},
			{Node: "A", Op: "atom", Comparisons: 10 * scale, Outputs: 10 * scale,
				Evals: 2 * scale},
			{Node: "B", Op: "atom", Comparisons: 20 * scale, Outputs: 20 * scale,
				Evals: 2 * scale},
		}
	}
	got := AggregateCostTables(mk(1), nil, mk(3))
	if len(got) != 3 {
		t.Fatalf("aggregate has %d rows, want 3", len(got))
	}
	top := got[0]
	if top.N1 != 40 || top.N2 != 80 || top.Comparisons != 120 || top.Outputs != 20 ||
		top.Predicted != 800 || top.Evals != 8 || top.MemoHits != 4 {
		t.Fatalf("summed row = %+v", top)
	}
	// Shape columns come from the first table, not the sum.
	if top.K1 != 1 || top.K2 != 1 || top.Op != "sequential" {
		t.Fatalf("shape columns mutated: %+v", top)
	}
	// Summing per-worker tables must preserve the Lemma 1 invariant each
	// table satisfied on its own.
	if top.Comparisons > top.Predicted {
		t.Fatalf("aggregate violates measured ≤ predicted: %d > %d", top.Comparisons, top.Predicted)
	}

	// A shape mismatch (different plan walk) is skipped, not mis-summed.
	skewed := mk(1)
	skewed[1].Node = "C"
	got = AggregateCostTables(mk(1), skewed)
	if got[0].N1 != 10 {
		t.Fatalf("mismatched table was summed anyway: %+v", got[0])
	}
	if AggregateCostTables(nil, []CostRow{}) != nil {
		t.Fatal("aggregate of empty tables should be nil")
	}
}
