// Package wlq is a query engine for workflow logs, implementing the
// incident-pattern algebra of Tang, Mackey and Su, "Querying Workflow Logs".
//
// A workflow log (Definition 2) is a totally ordered sequence of records
// (lsn, wid, is-lsn, activity, αin, αout), one per activity execution across
// many concurrently running workflow instances. An incident pattern
// (Definition 3) describes a temporally related set of activity executions
// within one instance, composed from activity names with four operators:
//
//	A . B     consecutive  (paper: ⊙)  B immediately follows A
//	A -> B    sequential   (paper: ≺)  B eventually follows A
//	A | B     choice       (paper: ⊗)  either A or B
//	A & B     parallel     (paper: ⊕)  both, sharing no records
//
// plus negation (!A) and — as an extension — attribute guards
// (GetRefer[balance>5000]). Evaluating a pattern p over a log L yields its
// incident set incL(p) (Definition 4): every set of records matching p.
//
// Basic use:
//
//	log, _ := wlq.LoadLog("referrals.jsonl")
//	engine := wlq.NewEngine(log)
//	set, _ := engine.Query("UpdateRefer -> GetReimburse")
//	for _, inc := range set.Incidents() {
//		fmt.Println(inc)
//	}
//
// The engine evaluates with the merge-join strategy and the Theorem 2–5
// cost-based optimizer by default; options select the paper's verbatim
// Algorithm 1 joins (WithStrategy(StrategyNaive)) or disable rewriting
// (WithoutOptimizer) for measurements.
package wlq

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"wlq/internal/analytics"
	"wlq/internal/clinic"
	"wlq/internal/colstore"
	"wlq/internal/core/eval"
	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
	"wlq/internal/core/rewrite"
	"wlq/internal/enact"
	"wlq/internal/logio"
	"wlq/internal/models"
	"wlq/internal/obs"
	"wlq/internal/resilience"
	"wlq/internal/stream"
	"wlq/internal/wlog"
)

// Core data-model types, re-exported from the implementation packages.
type (
	// Log is a workflow log per Definition 2.
	Log = wlog.Log
	// Record is a log record per Definition 1.
	Record = wlog.Record
	// AttrMap is an attribute map (αin/αout).
	AttrMap = wlog.AttrMap
	// Value is an attribute value from the domain D (or ⊥).
	Value = wlog.Value
	// Builder assembles valid logs incrementally.
	Builder = wlog.Builder
	// Pattern is an incident pattern (Definition 3).
	Pattern = pattern.Node
	// Incident is one incident instance (Definition 4).
	Incident = incident.Incident
	// IncidentSet is a set of incidents, incL(p).
	IncidentSet = incident.Set
	// Report is a grouped aggregation over an incident set.
	Report = analytics.Report
	// Strategy selects the operator join implementation.
	Strategy = eval.Strategy
	// Monitor evaluates watch patterns continuously over a growing log.
	Monitor = stream.Monitor
	// Alert reports a Monitor watch firing.
	Alert = stream.Alert
	// Budget caps a query evaluation's resources (comparisons, produced
	// incidents, wall time, result bytes); zero fields are unlimited. See
	// WithBudget and docs/RESILIENCE.md.
	Budget = resilience.Budget
)

// ErrBudgetExceeded is the sentinel matched (via errors.Is) by every
// budget-abort error returned from a budgeted Query.
var ErrBudgetExceeded = resilience.ErrBudgetExceeded

// NewMonitor creates a streaming monitor delivering alerts to handler (nil
// is allowed). Register patterns with Watch, then feed records with Ingest
// or IngestLog; each watch alerts once per workflow instance, at the record
// that first completes an incident.
func NewMonitor(handler func(Alert)) *Monitor { return stream.NewMonitor(handler) }

// Evaluation strategies.
const (
	// StrategyNaive is the published Algorithm 1 (nested loops).
	StrategyNaive = eval.StrategyNaive
	// StrategyMerge exploits sorted incident sets (the default).
	StrategyMerge = eval.StrategyMerge
)

// Attrs builds an AttrMap from name/value pairs; see wlog.Attrs.
func Attrs(pairs ...any) AttrMap { return wlog.Attrs(pairs...) }

// NewLog constructs and validates a log from records.
func NewLog(records []Record) (*Log, error) { return wlog.New(records) }

// ParsePattern parses the textual pattern syntax into a Pattern.
func ParsePattern(query string) (Pattern, error) { return pattern.Parse(query) }

// MustParsePattern is ParsePattern, panicking on error.
func MustParsePattern(query string) Pattern { return pattern.MustParse(query) }

// PatternTree renders a pattern's incident tree (Definition 6) as ASCII art.
func PatternTree(p Pattern) string { return pattern.TreeString(p) }

// LoadLog reads a validated log from a file; the format is inferred from
// the extension (.jsonl/.json or .log/.txt/.tsv).
func LoadLog(path string) (*Log, error) { return logio.ReadFile(path) }

// OpenLog resolves a log specification as accepted by the CLI tools' -log
// flags and the query service's startup arguments:
//
//	fig3                            the paper's Figure 3 example log
//	clinic:<instances>:<seed>       a generated clinic-referral log
//	model:<name>:<instances>:<seed> a generated log of a named model
//	<path>                          a log file; native formats by extension
//	                                (.jsonl/.json/.log/.txt/.tsv) plus the
//	                                .csv and .xes import formats
func OpenLog(spec string) (*Log, error) {
	if native(spec) {
		return logio.ReadFile(spec)
	}
	switch {
	case spec == "fig3":
		return ClinicFig3(), nil
	case strings.HasPrefix(spec, "clinic:"):
		parts := strings.Split(spec, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("malformed %q (want clinic:<instances>:<seed>)", spec)
		}
		instances, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("instances in %q: %w", spec, err)
		}
		seed, err := strconv.ParseInt(parts[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("seed in %q: %w", spec, err)
		}
		return ClinicLog(instances, seed)
	case strings.HasPrefix(spec, "model:"):
		parts := strings.Split(spec, ":")
		if len(parts) != 4 {
			return nil, fmt.Errorf("malformed %q (want model:<name>:<instances>:<seed>)", spec)
		}
		c, err := models.ByName(parts[1])
		if err != nil {
			return nil, err
		}
		instances, err := strconv.Atoi(parts[2])
		if err != nil {
			return nil, fmt.Errorf("instances in %q: %w", spec, err)
		}
		seed, err := strconv.ParseInt(parts[3], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("seed in %q: %w", spec, err)
		}
		return c.Generate(instances, seed)
	default:
		return logio.ReadFileAny(spec)
	}
}

// native reports whether a spec names a log file in a native format.
func native(spec string) bool {
	if spec == "fig3" || strings.HasPrefix(spec, "clinic:") || strings.HasPrefix(spec, "model:") {
		return false
	}
	_, err := logio.FormatForPath(spec)
	return err == nil
}

// StreamLog feeds the records of the log a spec (as for OpenLog) names to
// fn, unchecked. A native log file goes record by record as it is read, in
// file order, so the log is never held whole; a generator spec or a .csv or
// .xes import goes through the log OpenLog builds, in lsn order.
func StreamLog(spec string, fn func(Record)) error {
	if native(spec) {
		return logio.ReadFileFunc(spec, fn)
	}
	l, err := OpenLog(spec)
	if err != nil {
		return err
	}
	for i := range l.Len() {
		fn(l.Record(i))
	}
	return nil
}

// SaveLog writes a log to a file; the format is inferred from the extension.
func SaveLog(path string, l *Log) error { return logio.WriteFile(path, l) }

// DFG is a directly-follows graph: how often each activity is immediately
// followed by each other, across all instances.
type DFG = analytics.DFG

// DirectlyFollows computes the log's directly-follows graph; withEndpoints
// includes arcs from START and into END records.
func DirectlyFollows(l *Log, withEndpoints bool) *DFG {
	return analytics.DirectlyFollows(l, withEndpoints)
}

// Profile summarizes a log's shape (sizes, interleaving, activity
// frequencies).
type Profile = analytics.Profile

// ProfileLog computes a log Profile.
func ProfileLog(l *Log) Profile { return analytics.ProfileLog(l) }

// CSVOptions configures ImportCSV (column names, ordering, completion).
type CSVOptions = logio.CSVOptions

// ImportCSV reads a headered CSV event log (case id + activity name per
// row, optional timestamp and data columns) and assembles a valid workflow
// log, synthesizing the START/END bookkeeping records.
func ImportCSV(r io.Reader, opts CSVOptions) (*Log, error) {
	return logio.ImportCSV(r, opts)
}

// ExportCSV writes the log as a headered CSV event log (START/END records
// omitted, αout attributes as columns).
func ExportCSV(w io.Writer, l *Log) error { return logio.ExportCSV(w, l) }

// XESOptions configures ImportXES (trace interleaving, completion).
type XESOptions = logio.XESOptions

// ImportXES reads an XES (IEEE 1849) process-mining event log — the
// standard interchange format — and assembles a valid workflow log.
func ImportXES(r io.Reader, opts XESOptions) (*Log, error) {
	return logio.ImportXES(r, opts)
}

// ClinicFig3 returns the paper's Figure 3 example log (20 records, three
// referral instances).
func ClinicFig3() *Log { return clinic.Fig3() }

// ClinicLog generates a synthetic clinic-referral log with the given number
// of instances, enacting the workflow model of the paper's Example 2.
func ClinicLog(instances int, seed int64) (*Log, error) {
	return clinic.Generate(instances, seed)
}

// ClinicLogTimed is ClinicLog with simulated wall-clock timestamps on every
// record (attribute "time", RFC 3339), enabling duration analytics.
func ClinicLogTimed(instances int, seed int64) (*Log, error) {
	return enact.Run(clinic.Model(), enact.Config{
		Instances:        instances,
		Seed:             seed,
		Policy:           enact.PolicyRandom,
		CompleteFraction: 0.9,
		Stamp:            true,
	})
}

// Engine evaluates incident-pattern queries over one log. It is safe for
// concurrent use: all state is immutable after construction.
type Engine struct {
	log      *Log
	src      *colstore.Store
	strategy Strategy
	optimize bool
	budget   Budget
}

// Option configures an Engine.
type Option func(*Engine)

// WithStrategy selects the operator join implementation.
func WithStrategy(s Strategy) Option {
	return func(e *Engine) { e.strategy = s }
}

// WithoutOptimizer disables the Theorem 2–5 rewriter, evaluating queries
// exactly as written.
func WithoutOptimizer() Option {
	return func(e *Engine) { e.optimize = false }
}

// WithBudget caps each query's evaluation resources; a tripped limit aborts
// the query with an error wrapping ErrBudgetExceeded. Every evaluating
// method enforces it — Query, QueryTraced, Exists, Count and what is built
// on them; QueryPattern, which has no error result, returns a nil set.
// Count and Exists of most plans are arithmetic over position lists
// (every plan but ⊗ or ⊕ over multi-record operands): they produce no
// incident, so of the budget MaxComparisons — the probes and pair tests of
// the summary joins — and MaxWallTime apply to them; MaxOutputs and
// MaxResultBytes have nothing to bound.
func WithBudget(b Budget) Option {
	return func(e *Engine) { e.budget = b }
}

// NewEngine indexes the log and returns a query engine, served from the
// one store layout (internal/colstore; see docs/STORAGE.md).
func NewEngine(l *Log, opts ...Option) *Engine {
	e := &Engine{
		log:      l,
		src:      colstore.Build(l),
		strategy: StrategyMerge,
		optimize: true,
	}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Log returns the engine's log.
func (e *Engine) Log() *Log { return e.log }

// prepare parses and (optionally) optimizes a query.
func (e *Engine) prepare(query string) (Pattern, error) {
	p, err := pattern.Parse(query)
	if err != nil {
		return nil, err
	}
	return e.preparePattern(p), nil
}

func (e *Engine) preparePattern(p Pattern) Pattern {
	if e.optimize {
		p, _ = rewrite.Optimize(p, e.src)
	}
	return p
}

func (e *Engine) evaluator() *eval.Evaluator {
	return eval.New(e.src, eval.Options{Strategy: e.strategy, Budget: e.budget})
}

// evalSet evaluates a prepared plan on the calling goroutine.
func (e *Engine) evalSet(p Pattern) (*IncidentSet, error) {
	return e.evaluator().EvalParallelCtx(context.Background(), p, 1, nil)
}

// Query evaluates a textual query and returns its incident set incL(p).
func (e *Engine) Query(query string) (*IncidentSet, error) {
	p, err := e.prepare(query)
	if err != nil {
		return nil, err
	}
	return e.evalSet(p)
}

// QueryPattern evaluates an already-parsed pattern. When the engine has a
// budget, a tripped limit surfaces as a nil set (use Query for the error).
func (e *Engine) QueryPattern(p Pattern) *IncidentSet {
	set, _ := e.evalSet(e.preparePattern(p))
	return set
}

// Exists reports whether any incident of the query exists, short-circuiting
// across instances — the efficient form of the paper's yes/no questions.
func (e *Engine) Exists(query string) (bool, error) {
	p, err := e.prepare(query)
	if err != nil {
		return false, err
	}
	return e.evaluator().ExistsCtx(context.Background(), p)
}

// Count returns |incL(p)| for the query.
func (e *Engine) Count(query string) (int, error) {
	p, err := e.prepare(query)
	if err != nil {
		return 0, err
	}
	return e.evaluator().CountCtx(context.Background(), p)
}

// GroupByAttr evaluates the query and counts its incidents grouped by the
// named attribute, taken from the first record of each incident that
// defines it (αout, then αin).
func (e *Engine) GroupByAttr(query, attr string) (*Report, error) {
	set, err := e.Query(query)
	if err != nil {
		return nil, err
	}
	return analytics.GroupBy(set, analytics.ByAttr(e.src, attr)), nil
}

// GroupByInstanceAttr is GroupByAttr but draws the key from anywhere in the
// incident's workflow instance (e.g. group CheckIn incidents by the year
// set at GetRefer).
func (e *Engine) GroupByInstanceAttr(query, attr string) (*Report, error) {
	set, err := e.Query(query)
	if err != nil {
		return nil, err
	}
	return analytics.GroupBy(set, analytics.ByInstanceAttr(e.src, attr)), nil
}

// InstancesMatching returns the ids of workflow instances with at least one
// incident of the query, ascending.
func (e *Engine) InstancesMatching(query string) ([]uint64, error) {
	set, err := e.Query(query)
	if err != nil {
		return nil, err
	}
	return set.WIDs(), nil
}

// InstancesWithout returns the ids of instances that match the first query
// but have no incident of the second — the absence-style compliance check
// ("orders that shipped but never passed a fraud check") the pattern
// language alone cannot express, since its negation is atomic-only.
func (e *Engine) InstancesWithout(haveQuery, lackQuery string) ([]uint64, error) {
	have, err := e.InstancesMatching(haveQuery)
	if err != nil {
		return nil, err
	}
	lackSet, err := e.Query(lackQuery)
	if err != nil {
		return nil, err
	}
	lack := make(map[uint64]bool)
	for _, wid := range lackSet.WIDs() {
		lack[wid] = true
	}
	out := make([]uint64, 0, len(have))
	for _, wid := range have {
		if !lack[wid] {
			out = append(out, wid)
		}
	}
	return out, nil
}

// DurationStats summarizes the wall-clock spans of a query's incidents
// (records must carry the "time" attribute — stamped, or imported from
// CSV/XES with timestamps).
type DurationStats = analytics.DurationStats

// Durations evaluates the query and summarizes each incident's wall-clock
// span (last record time minus first record time).
func (e *Engine) Durations(query string) (DurationStats, error) {
	set, err := e.Query(query)
	if err != nil {
		return DurationStats{}, err
	}
	return analytics.Durations(e.src, set), nil
}

// DistinctInstances evaluates the query and counts the workflow instances
// with at least one incident ("how many students ...").
func (e *Engine) DistinctInstances(query string) (int, error) {
	set, err := e.Query(query)
	if err != nil {
		return 0, err
	}
	return analytics.DistinctInstances(set), nil
}

// IncidentRecords materializes an incident back into its log records.
func (e *Engine) IncidentRecords(inc Incident) []Record {
	return analytics.Records(e.src, inc)
}

// AtomBinding explains one atom of a matched pattern: which record (by
// is-lsn) the atom matched within an incident.
type AtomBinding struct {
	// Atom is the atomic pattern in its printed form, e.g. "!GetRefer".
	Atom string
	// Index is the atom's left-to-right position in the pattern.
	Index int
	// Seq is the is-lsn of the matched record.
	Seq uint64
}

// BindIncident explains how an incident matches a query: one AtomBinding
// per atom on the branches the incident took, in atom order. It returns an
// error when inc is not an incident of the query (note: the raw query is
// used, not its optimized form, so atom indexes match the query as
// written).
func (e *Engine) BindIncident(query string, inc Incident) ([]AtomBinding, error) {
	p, err := pattern.Parse(query)
	if err != nil {
		return nil, err
	}
	bindings, ok := eval.New(e.src, eval.Options{}).Bindings(p, inc)
	if !ok {
		return nil, fmt.Errorf("wlq: %v is not an incident of %q", inc, query)
	}
	atoms := pattern.Atoms(p)
	out := make([]AtomBinding, 0, len(bindings))
	for idx := 0; idx < len(atoms); idx++ {
		seq, ok := bindings[idx]
		if !ok {
			continue
		}
		out = append(out, AtomBinding{Atom: atoms[idx].String(), Index: idx, Seq: seq})
	}
	return out, nil
}

// QueryTrace is the full observability record of one traced query: the
// parse → canonicalize → rewrite → evaluate span tree plus the per-operator
// Lemma 1 cost table (measured comparisons vs. predicted bounds). See
// docs/OBSERVABILITY.md for the span glossary and column definitions.
type QueryTrace = obs.QueryTrace

// Trace is a span collector for traced query execution; see QueryTraced.
type Trace = obs.Trace

// NewTrace starts a trace whose root span carries the given name.
func NewTrace(name string) *Trace { return obs.NewTrace(name) }

// WithTrace returns a context carrying the trace; QueryTraced attaches its
// pipeline spans to it instead of creating a fresh trace.
func WithTrace(ctx context.Context, t *Trace) context.Context { return obs.WithTrace(ctx, t) }

// QueryTraced evaluates a textual query with execution tracing: every
// pipeline stage becomes a timed span, every applied rewrite law a child
// span with its cost bracket, and every plan node a cost-table row pairing
// its measured comparison work with the Lemma 1 predicted bound. If ctx
// already carries an obs.Trace the spans attach to it; otherwise a fresh
// trace is created. Tracing changes no results — the incident set is
// identical to Query's.
func (e *Engine) QueryTraced(ctx context.Context, query string) (*IncidentSet, *QueryTrace, error) {
	tr := obs.FromContext(ctx)
	if tr == nil {
		tr = obs.NewTrace("wlq.query")
		ctx = obs.WithTrace(ctx, tr)
	}

	sp := tr.StartSpan("parse")
	p, err := pattern.Parse(query)
	if err != nil {
		sp.SetAttr("error", err.Error())
		sp.End()
		return nil, nil, err
	}
	sp.SetAttr("pattern", p.String())
	sp.SetAttr("atoms", len(pattern.Atoms(p)))
	sp.SetAttr("operators", pattern.Operators(p))
	sp.End()

	sp = tr.StartSpan("canonicalize")
	sp.SetAttr("key", pattern.CanonicalKey(p))
	sp.End()

	plan := pattern.Node(p)
	if e.optimize {
		sp = tr.StartSpan("rewrite")
		var rt rewrite.Trace
		plan, rt = rewrite.Optimize(p, e.src)
		obs.RewriteSpans(sp, rt)
		sp.End()
	}

	meter := eval.NewMeter(plan)
	sp = tr.StartSpan("eval")
	ev := eval.New(e.src, eval.Options{Strategy: e.strategy, Meter: meter, Budget: e.budget})
	var qs eval.QueryStats
	set, err := ev.EvalParallelCtx(ctx, plan, 0, &qs)
	if err != nil {
		sp.SetAttr("error", err.Error())
		sp.End()
		return nil, nil, err
	}
	sp.SetAttr("strategy", e.strategy.String())
	sp.SetAttr("workers", qs.Workers)
	sp.SetAttr("instances", qs.Instances)
	sp.SetAttr("incidents", qs.Incidents)
	sp.End()
	tr.End()

	return set, &obs.QueryTrace{
		Query:     query,
		Plan:      plan.String(),
		Strategy:  e.strategy.String(),
		Spans:     tr.Root(),
		CostTable: obs.CostTable(meter),
	}, nil
}

// Explain parses the query and reports the incident tree, the optimizer's
// rewrite (if any), and the Lemma 1 cost estimates — without evaluating.
func (e *Engine) Explain(query string) (string, error) {
	p, err := pattern.Parse(query)
	if err != nil {
		return "", err
	}
	out := "query:     " + p.String() + "\n"
	out += "paper form: " + pattern.Pretty(p) + "\n"
	out += "incident tree:\n" + pattern.TreeString(p)
	if e.optimize {
		opt, ex := rewrite.Optimize(p, e.src)
		if !pattern.Equal(p, opt) {
			out += "optimized: " + opt.String() + "\n"
		}
		out += "plan:      " + ex.String() + "\n"
	} else {
		est := rewrite.NewEstimator(e.src)
		out += fmt.Sprintf("plan:      estimated cost %.4g (optimizer off)\n", est.Cost(p))
	}
	return out, nil
}
