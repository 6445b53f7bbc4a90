// Package server implements wlq-serve: a long-running HTTP query service
// over workflow logs. It loads logs at startup into colstore.Store — built
// once for a snapshot, grown by the ingest coordinator for a live log — and
// serves pattern queries with plan/result caching.
//
// Endpoints:
//
//	POST /v1/query    parse → rewrite → parallel evaluation (JSON in/out);
//	                  "trace": true adds the span tree and Lemma 1 cost table
//	GET  /v1/explain  the optimizer's rewrite trace and cost estimates
//	GET  /v1/logs     loaded-log inventory and validity status
//	GET  /metrics     service counters (JSON; ?format=prometheus for text exposition)
//	GET  /healthz     liveness probe
//	GET  /readyz      readiness probe (503 until a log is loaded)
//	GET  /debug/pprof profiling handlers (Config.EnablePprof)
//
// Every store version is immutable, so a request pins one — a snapshot's, or
// a live log's newest — and reads it without a lock from plan to response.
// A cached result records the version it was computed from and is served to
// a later version only while no record appended in between can have changed
// it; a reload starts a new generation. The result cache is an LRU keyed on
// (log, reload generation, canonicalized pattern): queries equal modulo
// associativity and commutativity (Theorems 2–3) share one entry.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"wlq/internal/cluster"
	"wlq/internal/colstore"
	"wlq/internal/core/eval"
	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
	"wlq/internal/core/rewrite"
	"wlq/internal/flightrec"
	"wlq/internal/ingest"
	"wlq/internal/obs"
	"wlq/internal/resilience"
	"wlq/internal/wal"
	"wlq/internal/wlog"
)

// Defaults for the zero Config.
const (
	DefaultCacheSize = 256
	DefaultTimeout   = 10 * time.Second
	DefaultMaxBody   = 1 << 20 // 1 MiB
	// DefaultMaxInFlight is the admission controller's default concurrency
	// bound: generous next to GOMAXPROCS evaluation workers, tight enough
	// that a burst of Lemma 1 worst cases sheds instead of queueing without
	// bound.
	DefaultMaxInFlight = 64
	// DefaultFlightRecorderSize is the flight recorder's per-ring capacity.
	DefaultFlightRecorderSize = flightrec.DefaultSize
)

// Config tunes the service. The zero value serves with merge joins,
// GOMAXPROCS workers, a 256-entry cache, a 10s per-request timeout and a
// 1 MiB request-body cap.
type Config struct {
	// Workers is the per-query evaluation parallelism (0 = GOMAXPROCS).
	Workers int
	// CacheSize is the maximum number of cached (plan, result) entries;
	// 0 means DefaultCacheSize, negative disables caching.
	CacheSize int
	// Timeout bounds each request's evaluation time (0 = DefaultTimeout).
	// Requests may lower it per call, never raise it.
	Timeout time.Duration
	// MaxBodyBytes caps the size of request bodies (0 = DefaultMaxBody).
	MaxBodyBytes int64
	// Strategy is the default join implementation (0 = merge).
	Strategy eval.Strategy
	// Logger, when non-nil, enables structured request logging (one Info
	// line per request) and the slow-query log. Nil disables both.
	Logger *slog.Logger
	// SlowQuery, when positive, logs a Warn line (and bumps the
	// slow_queries counter) for every query slower than the threshold.
	SlowQuery time.Duration
	// EnablePprof exposes the GET /debug/pprof/* profiling handlers.
	EnablePprof bool
	// MaxInFlight bounds concurrently served queries (admission control):
	// arrivals beyond the bound are shed immediately with 429 and a
	// Retry-After header instead of queueing behind a saturated worker
	// pool. 0 means DefaultMaxInFlight; negative disables shedding.
	MaxInFlight int
	// Budget caps each query evaluation's resources (comparisons, produced
	// incidents, wall time, result bytes); zero fields are unlimited. A
	// tripped budget maps to HTTP 422 with the partial per-operator cost
	// table attached. See docs/RESILIENCE.md for semantics and tuning.
	Budget resilience.Budget
	// MaxPredictedCost, when positive, is the pre-flight admission ceiling:
	// a query whose optimized plan's Lemma 1 cost estimate (rewrite
	// cost model) exceeds it is rejected with 422 before any evaluation
	// starts — the cost model tells us in advance which queries are
	// dangerous, so the worst ones never consume a worker at all.
	MaxPredictedCost float64
	// Loader re-reads a log's source spec for hot reload (POST /v1/reload,
	// and SIGHUP in cmd/wlq-serve), feeding its records to add one at a
	// time; the server builds and checks the store from them. Nil disables
	// reloading. The CLI passes wlq.StreamLog.
	Loader func(spec string, add func(wlog.Record)) error
	// FlightRecorderSize is the query flight recorder's per-ring capacity:
	// the recorder keeps that many recent executions plus that many notable
	// (slow or failed) ones. 0 means DefaultFlightRecorderSize; negative
	// disables the recorder (and its GET /v1/queries endpoints).
	FlightRecorderSize int
	// WorkerMode serves the cluster worker endpoint (POST /v1/worker/query):
	// this instance evaluates coordinator-shipped plans against the closed
	// wid interval each request names. Worker traffic bypasses rewrite,
	// caching and the flight recorder — the coordinator owns the query
	// lifecycle.
	WorkerMode bool
	// Cluster, when non-nil, runs this server as a cluster coordinator:
	// every query fans out over HTTP to the configured workers and the
	// answers merge under the completeness contract a single node's partial
	// answers use too. Set it via cmd/wlq-serve's -cluster-workers flag or
	// directly in tests; cluster.Config.Transport is the fault-injection
	// seam.
	Cluster *cluster.Config
	// ProbeInterval paces the coordinator's background worker health probes
	// (0 = cluster.DefaultProbeInterval; negative disables probing, for
	// tests that drive ProbeOnce deterministically).
	ProbeInterval time.Duration
	// Ingest enables durable live ingestion: every registered log accepts
	// POST /v1/logs/{name}/append, each accepted record is written to a
	// per-log write-ahead log before it touches the in-memory store, and
	// startup/reload replay the WAL so acknowledged records survive a
	// process kill. Incompatible with WorkerMode and Cluster (a live log's
	// contents would silently diverge across the fleet). See
	// docs/DURABILITY.md.
	Ingest bool
	// WALDir is the root directory for WAL segments; each log gets its own
	// subdirectory named after (a sanitized form of) the log name. Required
	// when Ingest is set.
	WALDir string
	// FsyncPolicy governs when WAL appends are flushed to stable storage
	// (zero value = wal.PolicyAlways: acknowledged means on disk).
	FsyncPolicy wal.Policy
	// FsyncInterval paces the background flush under wal.PolicyInterval
	// (0 = wal.DefaultFsyncInterval).
	FsyncInterval time.Duration
	// WALSegmentBytes is the rotation threshold per WAL segment file
	// (0 = wal.DefaultSegmentBytes).
	WALSegmentBytes int64
	// IngestQueue bounds concurrently admitted append requests per log;
	// arrivals beyond it are shed with 429 + Retry-After. 0 means
	// DefaultIngestQueue; negative disables the bound.
	IngestQueue int
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheSize == 0 {
		c.CacheSize = DefaultCacheSize
	}
	if c.Timeout <= 0 {
		c.Timeout = DefaultTimeout
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBody
	}
	if c.Strategy == 0 {
		c.Strategy = eval.StrategyMerge
	}
	return c
}

// logEntry is one loaded (generation of a) log (docs/STORAGE.md). An entry
// is immutable: hot reload replaces the pointer wholesale, so in-flight
// queries keep the entry they resolved at lookup time.
type logEntry struct {
	name   string
	source string
	valid  bool
	reason string // validation error text when !valid
	gen    uint64 // reload generation; part of the result-cache key
	// store is a snapshot's store (nil for a live log).
	store *colstore.Store
	// live is the log's durable ingest coordinator (nil unless
	// Config.Ingest). Unlike the rest of the entry it is long-lived shared
	// state: a hot reload rebases the SAME coordinator onto the fresh
	// snapshot (replaying its WAL on top) instead of replacing it, so the
	// WAL file handle and watermark survive reloads. It publishes the live
	// log's versions.
	live *ingest.Coordinator
}

// pin returns the store version a request reads, once, for all its
// stages: the snapshot, or the live log's newest — one atomic load of the
// coordinator's store, which never waits on an append.
func (e *logEntry) pin() *colstore.Store {
	if e.live == nil {
		return e.store
	}
	return e.live.Store()
}

// Server is the query service. Safe for concurrent use; logs are loaded
// before serving (AddLog) and replaced atomically by ReloadLogs afterwards.
type Server struct {
	cfg        Config
	admission  *resilience.Admission
	mu         sync.RWMutex
	logs       map[string]*logEntry
	names      []string          // registration order, for stable /v1/logs listings
	quarantine map[string]string // log name -> last reload error (entry kept at last-good)
	cache      *lru
	metrics    *metricsDoc

	// exec is how every log's queries run (newExecutor), chosen once.
	exec executor

	// coord is the cluster coordinator (nil for single-node service). It is
	// long-lived shared state: per-worker breakers and health verdicts
	// persist across queries and hot reloads.
	coord *cluster.Coordinator

	// flight is the query flight recorder (nil when disabled by a negative
	// Config.FlightRecorderSize). It is append-only shared state, never
	// replaced, so captures from before and after a hot reload coexist,
	// distinguished by their generation field.
	flight *flightrec.Recorder

	// reloadMu guards reloadCall, the single-flight slot for ReloadLogs:
	// concurrent reload requests (SIGHUP racing POST /v1/reload) join the
	// in-progress pass instead of starting their own.
	reloadMu   sync.Mutex
	reloadCall *reloadCall
}

// New creates a Server with no logs loaded. It panics on an invalid
// Config.Cluster (no workers, or duplicate worker URLs): that is a
// construction-time configuration error, and cmd/wlq-serve validates the
// flag before building the Config.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	capacity := cfg.MaxInFlight
	if capacity == 0 {
		capacity = DefaultMaxInFlight
	}
	var flight *flightrec.Recorder
	if cfg.FlightRecorderSize >= 0 {
		flight = flightrec.New(cfg.FlightRecorderSize) // 0 resolves to the default size
	}
	var coord *cluster.Coordinator
	if cfg.Cluster != nil {
		var err error
		if coord, err = cluster.New(*cfg.Cluster); err != nil {
			panic(fmt.Sprintf("server: invalid cluster config: %v", err))
		}
	}
	// Live ingestion mutates a single node's log; worker and coordinator
	// roles assume every node serves an identical immutable snapshot.
	// cmd/wlq-serve validates the flags; this is the same construction-time
	// backstop as an invalid cluster config.
	if cfg.Ingest && (cfg.WorkerMode || cfg.Cluster != nil) {
		panic("server: Config.Ingest is incompatible with WorkerMode and Cluster")
	}
	s := &Server{
		cfg:        cfg,
		admission:  resilience.NewAdmission(capacity), // nil (unlimited) when negative
		logs:       make(map[string]*logEntry),
		quarantine: make(map[string]string),
		cache:      newLRU(cfg.CacheSize),
		metrics:    newMetrics(cfg, coord),
		coord:      coord,
		flight:     flight,
	}
	s.exec = s.newExecutor()
	return s
}

// Coordinator returns the cluster coordinator, or nil for a single-node
// server. Tests use it to drive health probes deterministically
// (cluster.Coordinator.ProbeOnce); cmd/wlq-serve only needs StartClusterProbing.
func (s *Server) Coordinator() *cluster.Coordinator { return s.coord }

// StartClusterProbing launches the coordinator's background worker health
// probes until ctx is cancelled. No-op on a single-node server or with a
// negative Config.ProbeInterval (tests probe explicitly instead).
func (s *Server) StartClusterProbing(ctx context.Context) {
	if s.coord == nil || s.cfg.ProbeInterval < 0 {
		return
	}
	s.coord.StartProbing(ctx, s.cfg.ProbeInterval)
}

// AddLog registers a log under a name: AddStore of the store a
// colstore.Builder builds from the log's records, with the first Definition
// 2 violation it found.
func (s *Server) AddLog(name, source string, l *wlog.Log) error {
	if l == nil {
		return fmt.Errorf("server: nil log %q", name)
	}
	st, invalid := colstore.BuildChecked(l)
	return s.AddStore(name, source, st, invalid)
}

// AddStore registers a store under a name. source is a human-readable origin
// (file path or generator spec) echoed by /v1/logs, and invalid the first
// Definition 2 violation the store's builder found (nil: a valid log). Even
// an invalid log is served (the store tolerates it; /v1/logs flags it), but
// it cannot accept appends.
func (s *Server) AddStore(name, source string, st *colstore.Store, invalid error) error {
	if name == "" {
		return errors.New("server: empty log name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.logs[name]; dup {
		return fmt.Errorf("server: duplicate log name %q", name)
	}
	e := &logEntry{name: name, source: source, valid: invalid == nil}
	if invalid != nil {
		e.reason = invalid.Error()
	}
	if s.cfg.Ingest {
		// A live log must start from a clean snapshot: the WAL replays on
		// top of it and every append is checked against what it extends,
		// so the tolerate-and-flag posture of static serving does not apply.
		// The builder's check is the only one the snapshot gets.
		if !e.valid {
			return fmt.Errorf("server: log %q cannot accept appends: %s", name, e.reason)
		}
		coord, rec, err := s.openIngest(name, st)
		if err != nil {
			return fmt.Errorf("server: log %q: %w", name, err)
		}
		e.live = coord
		if s.cfg.Logger != nil && (rec.Records > 0 || rec.TornBytes > 0) {
			s.cfg.Logger.Info("wal recovered", "log", name,
				"records", rec.Records, "last_lsn", rec.LastLSN,
				"segments", rec.Segments, "torn_bytes", rec.TornBytes)
		}
	} else {
		e.store = st
	}
	s.logs[name] = e
	s.names = append(s.names, name)
	return nil
}

// lookup resolves a log name; a single loaded log may be addressed with an
// empty name (the common one-log deployment).
func (s *Server) lookup(name string) (*logEntry, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if name == "" && len(s.names) == 1 {
		return s.logs[s.names[0]], nil
	}
	e, ok := s.logs[name]
	if !ok {
		if name == "" {
			return nil, fmt.Errorf("log name required (loaded: %d logs)", len(s.names))
		}
		return nil, fmt.Errorf("unknown log %q", name)
	}
	return e, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("GET /v1/queries", s.handleFlightList)
	mux.HandleFunc("GET /v1/queries/{id}", s.handleFlightGet)
	mux.HandleFunc("GET /v1/explain", s.handleExplain)
	mux.HandleFunc("GET /v1/logs", s.handleLogs)
	mux.HandleFunc("POST /v1/reload", s.handleReload)
	if s.cfg.Ingest {
		mux.HandleFunc("POST /v1/logs/{name}/append", s.handleAppend)
	}
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	if s.cfg.WorkerMode {
		mux.HandleFunc("POST /v1/worker/query", s.handleWorkerQuery)
	}
	if s.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	// Panic isolation wraps every handler: a panicking request becomes a
	// 500 with an incident id while the process keeps serving. Request
	// logging sits outermost so recovered panics are still logged with
	// their status code.
	h := s.recoverPanics(mux)
	if s.cfg.Logger != nil {
		return s.logRequests(h)
	}
	return h
}

// recoverPanics converts a handler panic into a 500 carrying an incident id
// (logged alongside the stack) instead of killing the connection — and, with
// the default http.Server behavior, filling the error log with stack traces.
// http.ErrAbortHandler is re-raised: it is the sanctioned way to abort a
// response and must keep its net/http semantics.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler {
				panic(v)
			}
			pe := resilience.NewPanicError(v)
			s.metrics.PanicsRecovered.Add(1)
			if s.cfg.Logger != nil {
				s.cfg.Logger.Error("panic recovered in handler",
					"incident_id", pe.IncidentID,
					"method", r.Method,
					"path", r.URL.Path,
					"panic", fmt.Sprint(v),
					"stack", string(pe.Stack),
				)
			}
			writeJSON(w, http.StatusInternalServerError, errorDoc{
				Error:      "internal server error",
				IncidentID: pe.IncidentID,
			})
		}()
		next.ServeHTTP(w, r)
	})
}

// handleHealthz is the liveness probe: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe: 200 once at least one log is loaded
// (AddStore registers a store that is already built, so a registered log
// is a queryable log), 503 before that — load balancers keep the instance
// out of rotation until it can actually answer queries.
// A quarantined log (a reload that failed validation or loading; the
// last-good snapshot is still served) does not flip readiness, but the
// degradation is surfaced in the body so operators see it on the probe
// they already watch.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	loaded := len(s.logs)
	quarantined := make(map[string]string, len(s.quarantine))
	for name, reason := range s.quarantine {
		quarantined[name] = reason
	}
	s.mu.RUnlock()
	if loaded == 0 {
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]any{"status": "loading", "logs_loaded": 0})
		return
	}
	doc := map[string]any{"status": "ready", "logs_loaded": loaded}
	if len(quarantined) > 0 {
		doc["status"] = "degraded"
		doc["quarantined"] = quarantined
	}
	// A coordinator with lost workers (probe-unhealthy, or breaker not
	// closed) still answers — degraded, with partial coverage — so like a
	// quarantined log this surfaces on the probe without flipping readiness.
	if s.coord != nil {
		doc["workers"] = s.coord.Health()
		if lost := s.coord.Lost(); len(lost) > 0 {
			doc["status"] = "degraded"
			doc["workers_lost"] = lost
		}
	}
	writeJSON(w, http.StatusOK, doc)
}

// errorDoc is the JSON error envelope. Beyond the message, resilience
// failures attach machine-readable context: the incident id of a recovered
// panic (500), the retry hint of a shed query (429), the tripped budget
// dimension with its partial per-operator cost table (422), or the predicted
// cost versus the admission ceiling (422 pre-flight).
type errorDoc struct {
	Error             string        `json:"error"`
	IncidentID        string        `json:"incident_id,omitempty"`
	RetryAfterSeconds int           `json:"retry_after_seconds,omitempty"`
	BudgetDimension   string        `json:"budget_dimension,omitempty"`
	BudgetLimit       uint64        `json:"budget_limit,omitempty"`
	BudgetMeasured    uint64        `json:"budget_measured,omitempty"`
	PredictedCost     float64       `json:"predicted_cost,omitempty"`
	CostCeiling       float64       `json:"cost_ceiling,omitempty"`
	CostTable         []obs.CostRow `json:"cost_table,omitempty"`
	// Completeness accompanies a coordinator's 502 strict-mode rejection of
	// a partial result: what the result would have covered had the client
	// opted into degraded mode with "partial": true.
	Completeness *cluster.Completeness `json:"completeness,omitempty"`
	// Append failures (POST /v1/logs/{name}/append): Record names the
	// offending record (422 discipline rejection, or the unpersisted record
	// of a durability failure); Accepted counts the records of the same
	// request that were already durably applied — they are not rolled back
	// — and LastLSN is the watermark to resume from.
	Record   string `json:"record,omitempty"`
	Accepted int    `json:"accepted,omitempty"`
	LastLSN  uint64 `json:"last_lsn,omitempty"`
}

// writeJSON answers with v as one line of compact JSON (`| jq .` is the
// pretty-printer). The body is encoded before the status is committed, so a
// value that does not encode is a 500 with an error document, not a 200
// with a torn body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		code, body = http.StatusInternalServerError, encodeFailure(err)
	}
	writeBody(w, code, append(body, '\n'))
}

// encodeFailure is the error document for a response that did not encode.
func encodeFailure(err error) []byte {
	body, _ := json.Marshal(errorDoc{Error: "encode response: " + err.Error()})
	return body
}

// writeSpliced answers with the JSON object made of head's members, then
// "key": array, then tail's members — the document encoding/json writes for
// a struct declaring them in that order, except that array is already JSON,
// as lists of one array's elements in order — a scan goroutine's each, or a
// worker's — and is written as it stands, not encoded or joined again
// (incident.AppendArray). head must have members; an empty key leaves the
// array out. It returns the body's length.
func writeSpliced(w http.ResponseWriter, code int, head any, key string, array [][]byte, tail any) int {
	h, err := json.Marshal(head)
	var t []byte
	if err == nil {
		t, err = json.Marshal(tail)
	}
	if err != nil {
		return writeBody(w, http.StatusInternalServerError, append(encodeFailure(err), '\n'))
	}
	h = h[:len(h)-1] // reopen the object
	pieces := make([][]byte, 1, 2*len(array)+4)
	if key != "" {
		h = append(append(append(h, `,"`...), key...), `":`...)
		pieces = incident.AppendArray(pieces, array)
	}
	pieces[0] = h
	if len(t) > len("{}") {
		t[0] = ',' // tail's members follow
	} else {
		t = t[1:]
	}
	return writeBody(w, code, append(pieces, append(t, '\n'))...)
}

// writeBody commits a response: the status, the Content-Length of the
// pieces, and the pieces in order. It returns that length.
func writeBody(w http.ResponseWriter, code int, pieces ...[]byte) int {
	n := 0
	for _, p := range pieces {
		n += len(p)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(code)
	for _, p := range pieces {
		if len(p) > 0 {
			w.Write(p) // a failed write is a client that went away
		}
	}
	return n
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorDoc{Error: fmt.Sprintf(format, args...)})
}

// estimateDoc is the wire form of a rewrite.Estimate.
type estimateDoc struct {
	Cost            float64 `json:"cost"`
	CardPerInstance float64 `json:"cardinality_per_instance"`
	Atoms           int     `json:"atoms"`
}

func toEstimateDoc(e rewrite.Estimate) estimateDoc {
	return estimateDoc{Cost: e.Cost, CardPerInstance: e.Card, Atoms: e.Atoms}
}

// selectivityDoc surfaces the cost model's assumed selectivity constants,
// so a client can judge how much to trust a reported estimate. See
// rewrite.ModelSelectivities and docs/OPERATIONS.md.
type selectivityDoc struct {
	Guard       float64 `json:"guard"`
	Consecutive float64 `json:"consecutive"`
	Sequential  float64 `json:"sequential"`
	Parallel    float64 `json:"parallel"`
}

// explainResponse is the GET /v1/explain result. Answer is how a count,
// exists or instances request for the plan is computed under Strategy:
// "statistics" from the store's statistics, no instance read
// (eval.FromStatistics), "counted" from position lists, no incident built
// (eval.Counted), or "enumerated" like an incidents request. Candidates is how many instances a scan
// of the plan evaluates (eval.Candidates): "k of n instances", or "none"
// when its required-atom formula rules every instance out, as an atom whose
// activity never occurs does.
type explainResponse struct {
	Log           string         `json:"log"`
	Query         string         `json:"query"`
	PaperForm     string         `json:"paper_form"`
	Canonical     string         `json:"canonical"`
	IncidentTree  string         `json:"incident_tree"`
	Optimized     string         `json:"optimized"`
	Changed       bool           `json:"changed"`
	Steps         []string       `json:"steps"`
	Before        estimateDoc    `json:"before"`
	After         estimateDoc    `json:"after"`
	Strategy      string         `json:"strategy"`
	Answer        string         `json:"answer"`
	Workers       int            `json:"workers"`
	Candidates    string         `json:"candidates"`
	Selectivities selectivityDoc `json:"selectivities"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		writeError(w, http.StatusBadRequest, "missing q parameter")
		return
	}
	entry, err := s.lookup(r.URL.Query().Get("log"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	p, err := pattern.Parse(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, "parse error: %v", err)
		return
	}
	src := entry.pin()
	opt, trace := rewrite.Optimize(p, src)
	candidates := "none"
	if n := eval.Candidates(src, opt, s.cfg.Strategy); n > 0 {
		candidates = fmt.Sprintf("%d of %d instances", n, len(src.WIDs()))
	}
	steps := trace.Steps
	if steps == nil {
		steps = []string{}
	}
	writeJSON(w, http.StatusOK, explainResponse{
		Log:           entry.name,
		Query:         q,
		PaperForm:     pattern.Pretty(p),
		Canonical:     pattern.CanonicalKey(p),
		IncidentTree:  pattern.TreeString(p),
		Optimized:     opt.String(),
		Changed:       trace.Changed(),
		Steps:         steps,
		Before:        toEstimateDoc(trace.Before),
		After:         toEstimateDoc(trace.After),
		Strategy:      s.cfg.Strategy.String(),
		Answer:        answerPath(opt, eval.ShapeCount, s.cfg.Strategy, s.coord == nil || len(s.cfg.Cluster.Workers) == 1),
		Workers:       s.cfg.Workers,
		Candidates:    candidates,
		Selectivities: selectivityDoc(trace.Selectivities),
	})
}

// logDoc is one entry of the GET /v1/logs inventory.
type logDoc struct {
	Name              string `json:"name"`
	Source            string `json:"source"`
	Records           int    `json:"records"`
	Instances         int    `json:"instances"`
	CompleteInstances int    `json:"complete_instances"`
	Activities        int    `json:"activities"`
	Valid             bool   `json:"valid"`
	Error             string `json:"error,omitempty"`
	// Generation counts hot reloads of this log (0 = the startup load).
	Generation uint64 `json:"generation"`
	// ReloadError is set while the log is quarantined: the last reload
	// failed and this entry is the retained last-good snapshot.
	ReloadError string `json:"reload_error,omitempty"`
	// Live marks a log accepting durable appends; IngestLSN is then its
	// applied high-water mark (the lsn an appender last saw acknowledged).
	Live      bool   `json:"live,omitempty"`
	IngestLSN uint64 `json:"ingest_lsn,omitempty"`
}

// logsResponse is the GET /v1/logs result.
type logsResponse struct {
	Logs []logDoc `json:"logs"`
}

func (s *Server) handleLogs(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	entries := make([]*logEntry, 0, len(s.names))
	reloadErrs := make(map[string]string, len(s.quarantine))
	for _, name := range s.names {
		entries = append(entries, s.logs[name])
		if reason, ok := s.quarantine[name]; ok {
			reloadErrs[name] = reason
		}
	}
	s.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })

	docs := make([]logDoc, len(entries))
	for i, e := range entries {
		docs[i] = logDoc{
			Name:        e.name,
			Source:      e.source,
			Valid:       e.valid,
			Error:       e.reason,
			Generation:  e.gen,
			ReloadError: reloadErrs[e.name],
		}
		e.inventory(&docs[i])
	}
	writeJSON(w, http.StatusOK, logsResponse{Logs: docs})
}

// inventory fills in the counts of a /v1/logs row in one pass over the
// instances of one pinned version, so a live log's watermark matches the
// records counted.
func (e *logEntry) inventory(doc *logDoc) {
	src := e.pin()
	if e.live != nil {
		doc.Live = true
		doc.IngestLSN = src.LastLSN()
	}
	wids := src.WIDs()
	for _, wid := range wids {
		if _, ended := src.InstanceTail(wid); ended {
			doc.CompleteInstances++
		}
	}
	doc.Records = src.TotalRecords()
	doc.Instances = len(wids)
	doc.Activities = len(src.Activities())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	if format != "" && format != "json" && format != "prometheus" {
		writeError(w, http.StatusBadRequest,
			"unknown format %q (want json or prometheus)", format)
		return
	}
	m := s.metrics
	m.scrape.Lock()
	defer m.scrape.Unlock()
	s.scrapeMetrics(m)
	if format == "prometheus" {
		writePrometheus(w, m)
		return
	}
	writeJSON(w, http.StatusOK, m)
}
