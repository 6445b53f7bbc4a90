package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"wlq/internal/core/eval"
	"wlq/internal/core/pattern"
	"wlq/internal/core/rewrite"
	"wlq/internal/wlog"
)

func TestTraceContextRoundTrip(t *testing.T) {
	tr := NewTrace("q")
	ctx := WithTrace(context.Background(), tr)
	if got := FromContext(ctx); got != tr {
		t.Fatalf("FromContext = %p, want %p", got, tr)
	}
	if got := FromContext(context.Background()); got != nil {
		t.Fatalf("FromContext(empty) = %p, want nil", got)
	}
	if ctx2 := WithTrace(context.Background(), nil); FromContext(ctx2) != nil {
		t.Fatal("WithTrace(nil) must not store a trace")
	}
}

func TestNilTraceAndSpanAreNoOps(t *testing.T) {
	var tr *Trace
	if tr.Root() != nil {
		t.Error("nil trace root not nil")
	}
	sp := tr.StartSpan("x") // must not panic
	sp.SetAttr("k", 1)
	sp.End()
	if c := sp.StartChild("y"); c != nil {
		t.Error("nil span child not nil")
	}
	tr.End()
}

func TestSpanNesting(t *testing.T) {
	tr := NewTrace("root")
	a := tr.StartSpan("a")
	b := a.StartChild("b")
	b.SetAttr("k", "v")
	b.End()
	a.End()
	tr.End()

	root := tr.Root()
	if root.Name != "root" || len(root.Children) != 1 {
		t.Fatalf("root = %q with %d children", root.Name, len(root.Children))
	}
	if got := root.Children[0]; got.Name != "a" || len(got.Children) != 1 ||
		got.Children[0].Name != "b" || got.Children[0].Attrs["k"] != "v" {
		t.Fatalf("unexpected span tree: %+v", got)
	}
}

// traceFixture evaluates a metered query over a tiny log.
func traceFixture(t *testing.T, query string) (pattern.Node, *eval.Meter) {
	t.Helper()
	var b wlog.Builder
	w1 := b.Start()
	w2 := b.Start()
	for _, act := range []string{"A", "B", "C", "D"} {
		if err := b.Emit(w1, act, nil, nil); err != nil {
			t.Fatal(err)
		}
		if err := b.Emit(w2, act, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	l := b.MustBuild()
	p := pattern.MustParse(query)
	m := eval.NewMeter(p)
	eval.New(eval.NewIndex(l), eval.Options{Strategy: eval.StrategyNaive, Meter: m}).Eval(p)
	return p, m
}

func TestCostTableShape(t *testing.T) {
	p, m := traceFixture(t, "(A -> B) | (C & D)")
	rows := CostTable(m)
	if len(rows) != pattern.Size(p) {
		t.Fatalf("%d rows, want one per node (%d)", len(rows), pattern.Size(p))
	}
	if rows[0].Depth != 0 || rows[0].Op != "choice" || rows[0].Symbol == "" {
		t.Errorf("root row = %+v", rows[0])
	}
	wantBounds := map[string]string{
		"choice":     "n1·n2·min(k1,k2)",
		"parallel":   "n1·n2·(k1+k2)",
		"sequential": "n1·n2",
		"atom":       "n (index scan)",
	}
	for _, r := range rows {
		if r.Bound != wantBounds[r.Op] {
			t.Errorf("%s row bound = %q, want %q", r.Op, r.Bound, wantBounds[r.Op])
		}
		if r.Op != "atom" && r.Comparisons > r.Predicted {
			t.Errorf("%s: comparisons %d > predicted %d under naive", r.Node, r.Comparisons, r.Predicted)
		}
	}
}

func TestRewriteSpansCarryTheorems(t *testing.T) {
	tr := rewrite.Trace{
		Input:  pattern.MustParse("A -> B"),
		Output: pattern.MustParse("A -> B"),
		Details: []rewrite.Step{
			{Law: "factored shared choice operand", Theorem: "Theorem 5", Before: 10, After: 4},
		},
	}
	root := NewTrace("q")
	sp := root.StartSpan("rewrite")
	RewriteSpans(sp, tr)
	sp.End()
	if len(sp.Children) != 1 {
		t.Fatalf("%d law spans, want 1", len(sp.Children))
	}
	law := sp.Children[0]
	if law.Attrs["theorem"] != "Theorem 5" || law.Attrs["cost_before"] != 10.0 || law.Attrs["cost_after"] != 4.0 {
		t.Errorf("law span attrs = %v", law.Attrs)
	}
}

func TestQueryTraceJSONAndRender(t *testing.T) {
	p, m := traceFixture(t, "A . B")
	tr := NewTrace("q")
	tr.StartSpan("eval").End()
	tr.End()
	qt := &QueryTrace{
		Query:     "A . B",
		Plan:      p.String(),
		Strategy:  "naive",
		Spans:     tr.Root(),
		CostTable: CostTable(m),
	}

	raw, err := json.Marshal(qt)
	if err != nil {
		t.Fatal(err)
	}
	var back QueryTrace
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Query != qt.Query || len(back.CostTable) != len(qt.CostTable) || back.Spans == nil {
		t.Errorf("JSON round trip lost data: %+v", back)
	}

	var buf bytes.Buffer
	qt.Render(&buf)
	text := buf.String()
	for _, want := range []string{"A . B", "consecutive", "predicted", "n1·n2", "strategy: naive"} {
		if !strings.Contains(text, want) {
			t.Errorf("render output missing %q:\n%s", want, text)
		}
	}
}

func TestHistogramBucketPlacement(t *testing.T) {
	h := NewHistogram([]int64{10, 100})
	// On a bound lands in that bucket (Prometheus "le"); past the last bound
	// lands in the overflow slot.
	for _, us := range []int64{0, 10, 11, 100, 101, 5000} {
		h.Observe(time.Duration(us) * time.Microsecond)
	}
	s := h.Snapshot()
	if want := []uint64{2, 2, 2}; !reflect.DeepEqual(s.Buckets, want) {
		t.Errorf("buckets = %v, want %v", s.Buckets, want)
	}
	if s.Count != 6 || s.SumUS != 5222 {
		t.Errorf("count/sum = %d/%d, want 6/5222", s.Count, s.SumUS)
	}
}
