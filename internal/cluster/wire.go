package cluster

import (
	"time"

	"wlq/internal/core/incident"
	"wlq/internal/obs"
	"wlq/internal/resilience"
)

// The coordinator/worker wire protocol. One endpoint does the work:
//
//	POST /v1/worker/query
//
// The request carries the optimized plan TEXT (the coordinator has already
// run the Theorem 2–5 rewriter; workers evaluate the plan verbatim, so every
// worker runs the same plan and the merged answer is digest-identical to a
// single-node evaluation of that plan) plus the ring parameters — the full
// membership list, the replica count, and the receiver's own name. The
// worker recomputes its owned wid set from those, which keeps requests O(1)
// in log size and makes placement self-verifying: the response echoes the
// owned-wid count, and a coordinator seeing a different count knows the
// ring views diverged and treats the answer as a worker fault rather than
// silently merging a mis-partitioned result.

// WorkerQueryRequest is the POST /v1/worker/query body.
type WorkerQueryRequest struct {
	// Log names the log on the worker (workers load the same -log specs as
	// the coordinator).
	Log string `json:"log"`
	// Plan is the optimized pattern text, evaluated verbatim (no rewrite).
	Plan string `json:"plan"`
	// Ring is the full worker membership (names, i.e. base URLs); Replicas
	// the virtual-node count; Self the receiving worker's own name. The
	// worker evaluates exactly the wids NewRing(Ring, Replicas) assigns Self.
	Ring     []string `json:"ring"`
	Replicas int      `json:"replicas"`
	Self     string   `json:"self"`
	// Strategy optionally overrides the join implementation ("merge"/"naive").
	Strategy string `json:"strategy,omitempty"`
	// Limit is the per-operator per-instance incident cap (0 = none).
	Limit int `json:"limit,omitempty"`
	// Budget is this worker's slice of the query budget.
	Budget BudgetDoc `json:"budget,omitempty"`
	// Trace asks the worker to run its evaluation under an obs.Trace and
	// return the span tree plus Lemma 1 cost table in the response. The
	// trace/parent-span ids travel separately, on the Traceparent header.
	Trace bool `json:"trace,omitempty"`
	// MaxTraceSpans caps the span subtree the worker may return (0 = the
	// worker's default cap). Oversized trees are pruned pre-order and the
	// subtree root annotated with truncated_spans.
	MaxTraceSpans int `json:"max_trace_spans,omitempty"`
}

// BudgetDoc is resilience.Budget in wire form (wall time in milliseconds).
type BudgetDoc struct {
	MaxComparisons uint64 `json:"max_comparisons,omitempty"`
	MaxOutputs     uint64 `json:"max_outputs,omitempty"`
	MaxWallMS      int64  `json:"max_wall_ms,omitempty"`
	MaxResultBytes uint64 `json:"max_result_bytes,omitempty"`
}

// ToBudgetDoc converts a budget for the wire.
func ToBudgetDoc(b resilience.Budget) BudgetDoc {
	return BudgetDoc{
		MaxComparisons: b.MaxComparisons,
		MaxOutputs:     b.MaxOutputs,
		MaxWallMS:      b.MaxWallTime.Milliseconds(),
		MaxResultBytes: b.MaxResultBytes,
	}
}

// Budget converts the wire form back.
func (d BudgetDoc) Budget() resilience.Budget {
	return resilience.Budget{
		MaxComparisons: d.MaxComparisons,
		MaxOutputs:     d.MaxOutputs,
		MaxWallTime:    time.Duration(d.MaxWallMS) * time.Millisecond,
		MaxResultBytes: d.MaxResultBytes,
	}
}

// IncidentDoc is the wire form of one incident.
type IncidentDoc struct {
	WID  uint64   `json:"wid"`
	Seqs []uint64 `json:"seqs"`
}

// WorkerQueryResponse is the POST /v1/worker/query success body.
type WorkerQueryResponse struct {
	// Worker echoes the Self the worker evaluated as.
	Worker string `json:"worker"`
	// WIDsOwned is how many wids the worker's ring view assigned it — the
	// coordinator cross-checks this against its own assignment.
	WIDsOwned int `json:"wids_owned"`
	// Instances is the number of workflow instances actually evaluated.
	Instances int `json:"instances"`
	// Incidents are the worker's wid-local answers.
	Incidents []IncidentDoc `json:"incidents"`
	// ElapsedUS is the worker-side evaluation wall time.
	ElapsedUS int64 `json:"elapsed_us"`
	// TraceID echoes the propagated trace id (from the Traceparent request
	// header) when the worker traced; the coordinator cross-checks it the
	// same way WIDsOwned cross-checks placement.
	TraceID string `json:"trace_id,omitempty"`
	// Spans is the worker's span tree for this evaluation, offsets on the
	// worker's own clock; the coordinator grafts it into the query trace.
	// Present only when the request asked for tracing.
	Spans *obs.Span `json:"spans,omitempty"`
	// CostTable is the worker's per-operator Lemma 1 measured-vs-predicted
	// table, which the coordinator aggregates fleet-wide.
	CostTable []obs.CostRow `json:"cost_table,omitempty"`
}

// ToIncidents converts wire incidents back to incident values.
func ToIncidents(docs []IncidentDoc) []incident.Incident {
	out := make([]incident.Incident, len(docs))
	for i, d := range docs {
		out[i] = incident.New(d.WID, d.Seqs...)
	}
	return out
}

// FromIncidents converts incident values to wire form.
func FromIncidents(incs []incident.Incident) []IncidentDoc {
	out := make([]IncidentDoc, len(incs))
	for i, inc := range incs {
		out[i] = IncidentDoc{WID: inc.WID(), Seqs: inc.Seqs()}
	}
	return out
}

// WorkerErrorDoc is the worker's error envelope (any non-200 status).
type WorkerErrorDoc struct {
	Error string `json:"error"`
	// BudgetDimension is set on a 422 budget abort.
	BudgetDimension string `json:"budget_dimension,omitempty"`
	// IncidentID correlates a worker-side recovered panic (500).
	IncidentID string `json:"incident_id,omitempty"`
}
