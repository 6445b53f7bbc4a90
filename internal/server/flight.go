package server

import (
	"net/http"
	"strconv"
	"time"

	"wlq/internal/flightrec"
)

// Flight-recorder endpoints.
//
//	GET /v1/queries        — list recent captures (summaries, no trace)
//	GET /v1/queries/{id}   — one capture in full, span tree and cost table
//
// The list view deliberately omits traces: a ring of 256 captures each
// carrying a span tree would make the index response enormous. Clients scan
// the list, then fetch the capture they care about by id.

// captureSummary is the list-view projection of a flightrec.Capture.
type captureSummary struct {
	ID         uint64           `json:"id"`
	Time       time.Time        `json:"time"`
	Log        string           `json:"log,omitempty"`
	Generation uint64           `json:"generation"`
	Query      string           `json:"query"`
	Plan       string           `json:"plan,omitempty"`
	Status     flightrec.Status `json:"status"`
	HTTPStatus int              `json:"http_status,omitempty"`
	Error      string           `json:"error,omitempty"`
	ElapsedUS  int64            `json:"elapsed_us"`
	Slow       bool             `json:"slow,omitempty"`
	Cached     bool             `json:"cached,omitempty"`
	HasTrace   bool             `json:"has_trace"`
	// Workers lists each worker's elapsed/status for distributed captures,
	// so a slow or lost worker is findable without opening the full trace.
	Workers []workerBrief `json:"workers,omitempty"`
}

// workerBrief is the list-view projection of one worker's outcome.
type workerBrief struct {
	Worker    string `json:"worker"`
	Status    string `json:"status"`
	ElapsedUS int64  `json:"elapsed_us"`
}

func summarize(c *flightrec.Capture) captureSummary {
	cs := captureSummary{
		ID:         c.ID,
		Time:       c.Time,
		Log:        c.Log,
		Generation: c.Generation,
		Query:      c.Query,
		Plan:       c.Plan,
		Status:     c.Status,
		HTTPStatus: c.HTTPStatus,
		Error:      c.Error,
		ElapsedUS:  c.ElapsedUS,
		Slow:       c.Slow,
		Cached:     c.Cached,
		HasTrace:   c.Trace != nil,
	}
	if c.Workers != nil {
		for _, d := range c.Workers.PerWorker {
			cs.Workers = append(cs.Workers, workerBrief{
				Worker:    d.Worker,
				Status:    d.Status,
				ElapsedUS: d.ElapsedUS,
			})
		}
	}
	return cs
}

// flightListDoc is the GET /v1/queries response.
type flightListDoc struct {
	// Captured is the lifetime capture count (including evicted captures);
	// Count the number of summaries returned after filtering.
	Captured uint64           `json:"captured"`
	Count    int              `json:"count"`
	Queries  []captureSummary `json:"queries"`
}

// handleFlightList serves GET /v1/queries. Query parameters:
//
//	status=ok|partial|budget|panic|timeout|error
//	log=<name>
//	worker=<worker base URL>   (distributed captures touching that worker)
//	min_elapsed_ms=<int>
//	slow=true
//	limit=<int>
func (s *Server) handleFlightList(w http.ResponseWriter, r *http.Request) {
	if s.flight == nil {
		writeError(w, http.StatusNotImplemented, "flight recorder disabled")
		return
	}
	q := r.URL.Query()
	f := flightrec.Filter{
		Status: flightrec.Status(q.Get("status")),
		Log:    q.Get("log"),
		Worker: q.Get("worker"),
	}
	if v := q.Get("min_elapsed_ms"); v != "" {
		ms, err := strconv.Atoi(v)
		if err != nil || ms < 0 {
			writeError(w, http.StatusBadRequest, "min_elapsed_ms must be a non-negative integer")
			return
		}
		f.MinElapsed = time.Duration(ms) * time.Millisecond
	}
	if v := q.Get("slow"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "slow must be a boolean")
			return
		}
		f.SlowOnly = b
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "limit must be a non-negative integer")
			return
		}
		f.Limit = n
	}
	captures := s.flight.List(f)
	doc := flightListDoc{
		Captured: s.flight.Captured(),
		Count:    len(captures),
		Queries:  make([]captureSummary, 0, len(captures)),
	}
	for _, c := range captures {
		doc.Queries = append(doc.Queries, summarize(c))
	}
	writeJSON(w, http.StatusOK, doc)
}

// handleFlightGet serves GET /v1/queries/{id}: the full capture including
// the span tree and cost table, whether or not the original request asked
// for a trace.
func (s *Server) handleFlightGet(w http.ResponseWriter, r *http.Request) {
	if s.flight == nil {
		writeError(w, http.StatusNotImplemented, "flight recorder disabled")
		return
	}
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "capture id must be an integer")
		return
	}
	c, ok := s.flight.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "capture not found (evicted or never recorded)")
		return
	}
	writeJSON(w, http.StatusOK, c)
}
