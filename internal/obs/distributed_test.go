package obs

import (
	"encoding/json"
	"testing"
)

func TestTraceIDMintedOnce(t *testing.T) {
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
	if sid := NewSpanID(); len(sid) != 16 || sid == NewSpanID() {
		t.Fatalf("span id %q, want 16 hex chars, fresh each time", sid)
	}

	var nilTrace *Trace
	if nilTrace.ID() != "" {
		t.Fatal("nil trace must report an empty id")
	}
}

// TestAddChildRecordsAFinishedStage: a stage timed in another process joins
// the trace finished, at the offsets given, and stays as it was recorded.
func TestAddChildRecordsAFinishedStage(t *testing.T) {
	local := NewTrace("query")
	transport := local.StartSpan("transport")
	transport.End()
	w := transport.AddChild("worker", 500, 90)
	eval := w.AddChild("eval", 520, 60)
	eval.SetAttr("instances", 8)

	if len(transport.Children) != 1 || transport.Children[0] != w || len(w.Children) != 1 || w.Children[0] != eval {
		t.Fatal("stages not attached where added")
	}
	if w.StartUS != 500 || w.DurationUS != 90 || eval.StartUS != 520 || eval.DurationUS != 60 {
		t.Fatalf("stages at %d+%d and %d+%d, want 500+90 and 520+60", w.StartUS, w.DurationUS, eval.StartUS, eval.DurationUS)
	}
	// End must not restart the duration clock of a finished stage.
	w.End()
	if w.DurationUS != 90 {
		t.Fatalf("End on an added stage rewrote its duration to %d", w.DurationUS)
	}
	local.End()
	if _, err := json.Marshal(local.Root()); err != nil {
		t.Fatalf("stitched trace does not marshal: %v", err)
	}
	var none *Span
	if none.AddChild("x", 0, 0) != nil {
		t.Fatal("nil span child not nil")
	}
}

func TestStampWorkerFillsOnlyBlankAttribution(t *testing.T) {
	tr := NewTrace("worker")
	tr.StartSpan("eval").End()
	tr.End()
	root := tr.Root()
	StampWorker(root, "http://w1")
	StampWorker(root, "coordinator") // second stamp must not overwrite
	if root.Worker != "http://w1" || root.Children[0].Worker != "http://w1" {
		t.Fatalf("worker stamps = %q/%q, want http://w1 on both", root.Worker, root.Children[0].Worker)
	}
	StampWorker(nil, "x") // must not panic
}
