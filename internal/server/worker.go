package server

import (
	"context"
	"encoding/json"
	"net/http"
	"slices"
	"time"

	"wlq/internal/cluster"
	"wlq/internal/core/eval"
	"wlq/internal/core/pattern"
)

// The worker side of the cluster tier (Config.WorkerMode): one endpoint,
//
//	POST /v1/worker/query
//
// evaluating the coordinator's already-optimized plan verbatim against the
// wids of its local backend inside the interval the request names, and
// answering in the request's mode: the incidents, the wids that have one, or
// only how many there are. Workers do not rewrite, cache, record flights,
// trace, or flush statistics for coordinator traffic — the coordinator owns
// the query lifecycle; a worker is a remote failure domain with an evaluator,
// deliberately thin. Every reply carries the same small envelope whatever was
// asked: the scan's per-node counters and the request's stage timings, from
// which the coordinator builds the fleet cost table and, on a traced query,
// the worker's subtree.

// handleWorkerQuery serves one worker's part of a distributed
// query: the query pipeline's admit stage, a prepare stage in place of
// decode and plan (the plan arrives optimized), then the shared execute
// stage and error table.
func (s *Server) handleWorkerQuery(w http.ResponseWriter, r *http.Request) {
	s.metrics.Cluster.WorkerQueriesServed.Add(1)
	// Every failure is a worker error envelope; the coordinator classifies a
	// 5xx or 429 as retryable, anything else as deterministic.
	fail := func(code int, doc errorDoc) {
		s.metrics.Cluster.WorkerQueryErrors.Add(1)
		writeJSON(w, code, cluster.WorkerErrorDoc{
			Error:           doc.Error,
			BudgetDimension: doc.BudgetDimension,
			BudgetLimit:     doc.BudgetLimit,
			BudgetMeasured:  doc.BudgetMeasured,
			IncidentID:      doc.IncidentID,
		})
	}
	// The shared admission controller protects worker capacity too.
	if doc, ok := s.admit(w, "worker"); !ok {
		fail(http.StatusTooManyRequests, doc)
		return
	}
	defer s.admission.Release()
	started := time.Now()

	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	// Unknown fields are tolerated: during a rolling upgrade the coordinator
	// and workers may briefly speak adjacent protocol versions, and rejecting
	// a new optional field would turn every deploy into an outage.
	var req cluster.WorkerQueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		fail(http.StatusBadRequest, errorDoc{Error: "malformed worker request: " + err.Error()})
		return
	}
	entry, err := s.lookup(req.Log)
	if err != nil {
		fail(http.StatusNotFound, errorDoc{Error: err.Error()})
		return
	}
	p, err := pattern.Parse(req.Plan)
	if err != nil {
		fail(http.StatusBadRequest, errorDoc{Error: "bad plan: " + err.Error()})
		return
	}
	strategy, err := parseStrategy(req.Strategy, s.cfg.Strategy)
	if err != nil {
		fail(http.StatusBadRequest, errorDoc{Error: err.Error()})
		return
	}
	shape, err := eval.ParseShape(req.Mode)
	if err != nil {
		fail(http.StatusBadRequest, errorDoc{Error: err.Error()})
		return
	}
	// A request without its interval must not read as "evaluate everything".
	if req.WIDMin == nil || req.WIDMax == nil || *req.WIDMin > *req.WIDMax {
		fail(http.StatusBadRequest, errorDoc{Error: "worker request needs wid_min <= wid_max"})
		return
	}
	// This worker's part is the slice of its own ascending wid list inside
	// the interval. The response echoes the member count so the coordinator
	// can tell a copy of the log that differs from its own.
	src := entry.pin()
	wids := src.WIDs()
	lo, _ := slices.BinarySearch(wids, *req.WIDMin)
	hi, found := slices.BinarySearch(wids, *req.WIDMax)
	if found {
		hi++
	}
	owned := wids[lo:hi]

	prepared := time.Now()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	meter := eval.NewMeter(p)
	opts := eval.Options{Strategy: strategy, Meter: meter, Budget: req.Budget.Budget()}
	// One goroutine evaluates the owned wids serially: the fleet is the
	// query's parallelism. A worker answers all or nothing — an excluded
	// instance fails its part, which the coordinator retries or reports lost.
	x := s.execute(1, func() (x execution) {
		x.res, x.err = eval.New(src, opts).ServeCtx(ctx, p, owned, 1, shape, &x.stats)
		x.err = x.res.Strict(x.err)
		return x
	})
	evaluated := time.Now()
	if x.err != nil {
		_, code, doc := s.evalFailure(x.err, false, s.cfg.Timeout, entry.name, req.Plan)
		fail(code, doc)
		return
	}
	reply := cluster.WorkerReply{Worker: req.Self, WIDsOwned: len(owned), Instances: x.stats.Instances,
		Count: x.res.Count, ElapsedUS: time.Since(started).Microseconds(),
		PrepareUS: prepared.Sub(started).Microseconds(), EvalUS: evaluated.Sub(prepared).Microseconds(), Ops: meter.Ops()}
	// The answer array of the mode as lists; a count has none.
	lists := x.res.Wire
	if shape == eval.ShapeInstances {
		lists = [][]byte{appendUints(nil, x.res.WIDs)}
	}
	if err := cluster.WriteReply(w, shape, lists, &reply); err != nil {
		fail(http.StatusInternalServerError, errorDoc{Error: "encode response: " + err.Error()})
	}
	eval.Recycle(x.res.Wire)
}
