package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
	"time"
)

// Distributed tracing support: trace/span id minting in the W3C
// traceparent shape, grafting of wire-decoded worker span subtrees into a
// live coordinator trace, worker attribution stamping, and fleet-wide
// cost-table aggregation.
//
// The coordinator mints a trace id once per query and sends
// "00-<trace-id>-<span-id>-01" on every worker request (a fresh span id
// per attempt, the same trace id throughout). Workers adopt the propagated
// trace id, run their span tree (worker → prepare, eval) under it, and
// return the serialized tree; the coordinator grafts each returned subtree
// under the local span that issued the accepted request.

// TraceparentHeader is the HTTP header carrying the propagated trace
// context on coordinator→worker requests.
const TraceparentHeader = "Traceparent"

// NewTraceID mints a 32-hex-char (16-byte) trace id.
func NewTraceID() string { return randHex(16) }

// NewSpanID mints a 16-hex-char (8-byte) span id.
func NewSpanID() string { return randHex(8) }

// randHex returns n random bytes in lowercase hex, falling back to a
// time-derived value if the system entropy source fails.
func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		now := time.Now().UnixNano()
		for i := range b {
			b[i] = byte(now >> (8 * (i % 8)))
		}
	}
	return hex.EncodeToString(b)
}

// FormatTraceparent renders a W3C-style traceparent header value:
// version 00, sampled flag set.
func FormatTraceparent(traceID, spanID string) string {
	return fmt.Sprintf("00-%s-%s-01", traceID, spanID)
}

// ParseTraceparent splits a traceparent header value into its trace id and
// parent span id. Malformed values (wrong field count, wrong id widths,
// all-zero ids) report ok=false and must be ignored by the receiver.
func ParseTraceparent(v string) (traceID, spanID string, ok bool) {
	parts := strings.Split(strings.TrimSpace(v), "-")
	if len(parts) < 4 || len(parts[1]) != 32 || len(parts[2]) != 16 {
		return "", "", false
	}
	if parts[1] == strings.Repeat("0", 32) || parts[2] == strings.Repeat("0", 16) {
		return "", "", false
	}
	return parts[1], parts[2], true
}

// Graft attaches a wire-decoded span subtree under parent, shifting the
// subtree's clock by offsetUS so its offsets are expressed on the grafting
// trace's clock (pass the local span's StartUS to align the remote tree
// with the request that produced it). The subtree is adopted: its spans
// become finished members of parent's trace and render/marshal with it.
func Graft(parent *Span, sub *Span, offsetUS int64) {
	if parent == nil || sub == nil {
		return
	}
	t := parent.trace
	t.mu.Lock()
	defer t.mu.Unlock()
	adopt(sub, t, offsetUS)
	parent.Children = append(parent.Children, sub)
}

// adopt recursively claims a foreign subtree for trace t. Wire-decoded
// spans carry no trace pointer and are already complete, so they are
// marked ended to keep End/SetAttr safe on them afterwards.
func adopt(s *Span, t *Trace, offsetUS int64) {
	s.trace = t
	s.ended = true
	s.StartUS += offsetUS
	for _, c := range s.Children {
		adopt(c, t, offsetUS)
	}
}

// StampWorker labels every span of the subtree that does not already carry
// a worker attribution. Workers stamp their own name before serializing;
// the coordinator stamps "coordinator" over the stitched trace afterwards,
// filling exactly the locally recorded spans. Call only once the spans are
// quiescent (trace ended or subtree not yet grafted).
func StampWorker(s *Span, worker string) {
	if s == nil || worker == "" {
		return
	}
	if s.Worker == "" {
		s.Worker = worker
	}
	for _, c := range s.Children {
		StampWorker(c, worker)
	}
}

// AggregateCostTables folds per-worker Lemma 1 cost tables into one
// fleet-wide measured-vs-predicted table. Every worker evaluates the same
// plan text, so the tables are row-aligned pre-order walks of the same
// tree; measured and predicted columns sum row-by-row (Lemma 1 bounds are
// per-instance sums, so summing across disjoint instance placements
// preserves measured ≤ predicted). Tables whose shape disagrees with the
// first (a mid-rollout plan divergence) are skipped rather than
// mis-summed. Returns nil when no table is usable.
func AggregateCostTables(tables ...[]CostRow) []CostRow {
	var out []CostRow
	for _, t := range tables {
		if len(t) == 0 {
			continue
		}
		if out == nil {
			out = make([]CostRow, len(t))
			copy(out, t)
			continue
		}
		if !sameShape(out, t) {
			continue
		}
		for i := range t {
			out[i].N1 += t[i].N1
			out[i].N2 += t[i].N2
			out[i].Comparisons += t[i].Comparisons
			out[i].Outputs += t[i].Outputs
			out[i].Predicted += t[i].Predicted
			out[i].Evals += t[i].Evals
			out[i].MemoHits += t[i].MemoHits
		}
	}
	return out
}

// sameShape reports whether two cost tables describe the same plan walk.
func sameShape(a, b []CostRow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Node != b[i].Node || a[i].Op != b[i].Op {
			return false
		}
	}
	return true
}
