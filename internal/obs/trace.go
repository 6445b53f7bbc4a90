// Package obs is the query-execution tracing and instrumentation layer:
// span trees for the parse → canonicalize → rewrite → evaluate pipeline,
// and per-operator cost tables pairing the comparisons the evaluator
// actually performed (eval.Meter) with the Lemma 1 predicted bounds.
//
// A *Trace is carried through the pipeline via context.Context (WithTrace /
// FromContext); each stage opens spans on it and attaches attributes. A
// span is a timed stage, never a plan node: the per-node numbers live once,
// in the cost table. The assembled QueryTrace is rendered as an ASCII tree for the CLI (-trace)
// and marshals to JSON for the query service (POST /v1/query with
// "trace": true).
//
// The package is stdlib-only and allocation-light: tracing a query costs a
// few span allocations; an untraced query opens no spans (a nil *Trace and
// nil *Span are valid receivers everywhere and make every method a no-op).
// The per-node counters of eval.Meter run traced or not: they feed the
// service's per-operator totals as well as the cost table.
//
// A cluster query's trace is built in one process: the coordinator adds
// each worker's worker → prepare, eval stages under the transport span that
// carried its reply, from the timings the reply reports (Span.AddChild), and
// its cost table is the workers' counters added into one meter.
package obs

import (
	"context"
	"sync"
	"time"
)

// Trace is one query execution's span tree. Create with NewTrace, carry via
// WithTrace/FromContext, and read Root after the pipeline finishes. All
// methods are safe for concurrent use and valid on a nil receiver.
type Trace struct {
	mu    sync.Mutex
	start time.Time
	root  *Span
	id    string
}

// NewTrace starts a trace whose root span carries the given name.
func NewTrace(name string) *Trace {
	t := &Trace{start: time.Now()}
	t.root = &Span{trace: t, Name: name}
	return t
}

// ID returns the trace id, minting one on first use: 16 random bytes in
// lowercase hex, the W3C trace-id shape.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.id == "" {
		t.id = NewTraceID()
	}
	return t.id
}

// Root returns the root span (nil for a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// StartSpan opens a child of the root span.
func (t *Trace) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	return t.root.StartChild(name)
}

// End closes the root span, fixing the trace's total duration.
func (t *Trace) End() {
	if t == nil {
		return
	}
	t.root.End()
}

// sinceUS is the trace clock: microseconds since the trace started.
func (t *Trace) sinceUS() int64 {
	return int64(time.Since(t.start) / time.Microsecond)
}

// Span is one timed stage of a traced query. Exported fields form the JSON
// wire shape; mutate only through the methods, which lock the owning trace.
type Span struct {
	trace *Trace
	ended bool

	// Name identifies the stage ("parse", "rewrite", "eval"…).
	Name string `json:"name"`
	// Worker attributes the span to the process whose stage it times — a
	// worker base URL on a worker subtree, "coordinator" on the other spans
	// of a stitched distributed trace, empty on single-node traces.
	Worker string `json:"worker,omitempty"`
	// StartUS is the span's start offset from the trace start, µs.
	StartUS int64 `json:"start_us"`
	// DurationUS is the span's duration, µs (0 until End).
	DurationUS int64 `json:"duration_us"`
	// Attrs carries the stage's key/value annotations.
	Attrs map[string]any `json:"attrs,omitempty"`
	// Children are the nested spans, in start order.
	Children []*Span `json:"children,omitempty"`
}

// StartChild opens a nested span. Valid on a nil receiver (returns nil).
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	t := s.trace
	t.mu.Lock()
	defer t.mu.Unlock()
	c := &Span{trace: t, Name: name, StartUS: t.sinceUS()}
	s.Children = append(s.Children, c)
	return c
}

// AddChild attaches a finished span for a stage timed elsewhere — a worker's,
// from its reply: startUS is its offset on this trace's clock, durationUS its
// length. Valid on a nil receiver (returns nil).
func (s *Span) AddChild(name string, startUS, durationUS int64) *Span {
	if s == nil {
		return nil
	}
	t := s.trace
	t.mu.Lock()
	defer t.mu.Unlock()
	c := &Span{trace: t, ended: true, Name: name, StartUS: startUS, DurationUS: durationUS}
	s.Children = append(s.Children, c)
	return c
}

// End closes the span; later calls are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.trace
	t.mu.Lock()
	defer t.mu.Unlock()
	if !s.ended {
		s.ended = true
		s.DurationUS = t.sinceUS() - s.StartUS
	}
}

// SetAttr annotates the span. Values should be JSON-marshalable scalars.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	t := s.trace
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.Attrs == nil {
		s.Attrs = make(map[string]any)
	}
	s.Attrs[key] = value
}

// ctxKey is the context key for a *Trace.
type ctxKey struct{}

// WithTrace returns a context carrying the trace; a nil trace returns ctx
// unchanged.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext extracts the trace carried by the context, or nil.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
