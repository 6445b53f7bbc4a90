// Command wlq runs incident-pattern queries over workflow log files.
//
// Usage:
//
//	wlq -log referrals.jsonl -q "UpdateRefer -> GetReimburse"
//	wlq -log fig3 -q "SeeDoctor -> (UpdateRefer -> GetReimburse)" -records
//	wlq -log clinic:500:7 -q "GetRefer[balance>5000]" -group-by year
//	wlq -log big.jsonl -q "A -> B" -exists
//	wlq -log big.jsonl -q "(A -> B) | (A -> C)" -explain
//
// The -log flag accepts a file path (.jsonl/.json/.log/.txt/.tsv), the
// literal "fig3" for the paper's Figure 3 example, or
// "clinic:<instances>:<seed>" for a generated clinic-referral log.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"wlq"
	"wlq/internal/audit"
	"wlq/internal/models"
)

// traceOut receives the -trace rendering (span tree + cost table). It goes
// to stderr so piping incident output stays clean; tests override it.
var traceOut io.Writer = os.Stderr

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wlq:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("wlq", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		logSpec     = fs.String("log", "", "log source: file path, \"fig3\", \"clinic:<instances>:<seed>\", or \"model:<name>:<instances>:<seed>\"")
		query       = fs.String("q", "", "incident-pattern query")
		exists      = fs.Bool("exists", false, "print only whether any incident exists")
		count       = fs.Bool("count", false, "print only the number of incidents")
		students    = fs.Bool("instances", false, "print only the number of distinct workflow instances with a match")
		records     = fs.Bool("records", false, "print each incident's full log records")
		bind        = fs.Bool("bind", false, "print which atom of the query matched which record")
		explain     = fs.Bool("explain", false, "print the incident tree and plan instead of evaluating")
		groupBy     = fs.String("group-by", "", "group incident counts by this attribute")
		groupScope  = fs.String("group-scope", "incident", "attribute lookup scope for -group-by: incident or instance")
		naive       = fs.Bool("naive", false, "use the paper's verbatim Algorithm 1 joins")
		noOpt       = fs.Bool("no-optimize", false, "disable the Theorem 2-5 query optimizer")
		maxComp     = fs.Uint64("max-comparisons", 0, "abort a query after this many record comparisons (0 = unlimited)")
		timeout     = fs.Duration("timeout", 0, "abort a query after this much wall time, e.g. 5s (0 = unlimited)")
		trace       = fs.Bool("trace", false, "print the execution trace (span tree and Lemma 1 cost table) to stderr")
		stats       = fs.Bool("stats", false, "print log statistics and exit (no query needed)")
		dfg         = fs.Bool("dfg", false, "print the directly-follows graph and exit (no query needed)")
		conform     = fs.String("conform", "", "check every instance against this model (orders, loans, helpdesk) and exit")
		auditModel  = fs.String("audit", "", "derive compliance queries from this model's clean reference and audit the log")
		dot         = fs.Bool("dot", false, "with -dfg: emit Graphviz DOT instead of text")
		interactive = fs.Bool("i", false, "interactive mode: read queries from stdin")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *logSpec == "" {
		fs.Usage()
		return fmt.Errorf("missing -log")
	}
	log, err := loadLog(*logSpec)
	if err != nil {
		return err
	}

	if *stats {
		printStats(out, log)
		return nil
	}
	if *dfg {
		g := wlq.DirectlyFollows(log, true)
		if *dot {
			fmt.Fprint(out, g.Dot(*logSpec))
		} else {
			fmt.Fprint(out, g)
		}
		return nil
	}
	if *conform != "" {
		return runConformance(out, log, *conform)
	}
	if *auditModel != "" {
		c, err := models.ByName(*auditModel)
		if err != nil {
			return err
		}
		report, err := audit.Check(log, c.Reference)
		if err != nil {
			return err
		}
		fmt.Fprint(out, report)
		return nil
	}
	var opts []wlq.Option
	if *naive {
		opts = append(opts, wlq.WithStrategy(wlq.StrategyNaive))
	}
	if *noOpt {
		opts = append(opts, wlq.WithoutOptimizer())
	}
	if b := (wlq.Budget{MaxComparisons: *maxComp, MaxWallTime: *timeout}); !b.IsZero() {
		opts = append(opts, wlq.WithBudget(b))
	}
	if *interactive {
		return repl(wlq.NewEngine(log, opts...), stdin, out)
	}
	if *query == "" {
		fs.Usage()
		return fmt.Errorf("missing -q")
	}
	engine := wlq.NewEngine(log, opts...)

	switch {
	case *explain:
		text, err := engine.Explain(*query)
		if err != nil {
			return err
		}
		fmt.Fprint(out, text)
	case *exists:
		ok, err := engine.Exists(*query)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, ok)
	case *count:
		n, err := engine.Count(*query)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, n)
	case *students:
		n, err := engine.DistinctInstances(*query)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, n)
	case *groupBy != "":
		var report *wlq.Report
		switch *groupScope {
		case "incident":
			report, err = engine.GroupByAttr(*query, *groupBy)
		case "instance":
			report, err = engine.GroupByInstanceAttr(*query, *groupBy)
		default:
			return fmt.Errorf("unknown -group-scope %q (want incident or instance)", *groupScope)
		}
		if err != nil {
			return err
		}
		fmt.Fprint(out, report)
	default:
		var set *wlq.IncidentSet
		if *trace {
			var qt *wlq.QueryTrace
			set, qt, err = engine.QueryTraced(context.Background(), *query)
			if err != nil {
				return err
			}
			qt.Render(traceOut)
		} else {
			set, err = engine.Query(*query)
			if err != nil {
				return err
			}
		}
		fmt.Fprintf(out, "%d incident(s)\n", set.Len())
		for _, inc := range set.Incidents() {
			fmt.Fprintln(out, " ", inc)
			if *records {
				for _, rec := range engine.IncidentRecords(inc) {
					fmt.Fprintln(out, "   ", rec)
				}
			}
			if *bind {
				bindings, err := engine.BindIncident(*query, inc)
				if err != nil {
					return err
				}
				for _, ab := range bindings {
					fmt.Fprintf(out, "    %s => is-lsn %d\n", ab.Atom, ab.Seq)
				}
			}
		}
	}
	return nil
}

// loadLog resolves the -log flag; wlq.OpenLog implements the spec syntax
// (shared with cmd/wlq-serve).
func loadLog(spec string) (*wlq.Log, error) {
	return wlq.OpenLog(spec)
}

// runConformance checks every instance's activity trace against the named
// model's language: complete instances must be full words, in-flight ones
// valid prefixes.
func runConformance(out io.Writer, log *wlq.Log, modelName string) error {
	c, err := models.ByName(modelName)
	if err != nil {
		return err
	}
	total, bad := 0, 0
	for _, wid := range log.WIDs() {
		var trace []string
		for _, r := range log.Instance(wid) {
			if r.IsStart() || r.IsEnd() {
				continue
			}
			trace = append(trace, r.Activity)
		}
		total++
		ok := false
		kind := "prefix"
		if log.InstanceComplete(wid) {
			ok = c.Model.Accepts(trace)
			kind = "trace"
		} else {
			ok = c.Model.AcceptsPrefix(trace)
		}
		if !ok {
			bad++
			fmt.Fprintf(out, "wid %d: %s does not conform: %s\n", wid, kind, strings.Join(trace, " "))
		}
	}
	fmt.Fprintf(out, "%d of %d instance(s) conform to model %q\n", total-bad, total, modelName)
	return nil
}

func printStats(out io.Writer, log *wlq.Log) {
	fmt.Fprint(out, wlq.ProfileLog(log))
}
