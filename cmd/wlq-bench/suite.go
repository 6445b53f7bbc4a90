package main

import (
	"fmt"
	"io"

	"wlq"
	"wlq/internal/benchkit"
)

// The backend suite: a fixed set of queries over a generated clinic log,
// measured per backend and emitted as a benchkit.Report. The queries lean
// atomic-heavy on purpose — single atoms and two-atom operators are where
// the columnar posting lists pay off — with a few composite plans so
// regressions in the join loops are visible too. The count/* and exists/*
// benches answer without materializing incident sets, so they measure the
// storage probe and join arithmetic directly; the incident-mode benches
// include materialization, which is backend-independent and dominates on
// high-cardinality results.
const (
	modeIncidents = "incidents"
	modeCount     = "count"
	modeExists    = "exists"
)

var suiteBenches = []struct {
	name  string
	query string
	mode  string
}{
	{"atom/frequent", "SeeDoctor", modeIncidents},
	{"atom/rare", "GetReimburse", modeIncidents},
	{"atom/negated", "!SeeDoctor", modeIncidents},
	{"consecutive", "CheckIn . SeeDoctor", modeIncidents},
	{"sequential", "SeeDoctor -> PayTreatment", modeIncidents},
	{"choice", "GetRefer | GetReimburse", modeIncidents},
	{"parallel", "UpdateRefer & TakeTreatment", modeIncidents},
	{"chain/seq3", "GetRefer -> (SeeDoctor -> PayTreatment)", modeIncidents},
	{"mixed/choice-of-seqs", "(SeeDoctor -> PayTreatment) | (SeeDoctor -> UpdateRefer)", modeIncidents},
	{"boundary/start-end", "START -> END", modeIncidents},
	{"count/consecutive", "CheckIn . SeeDoctor", modeCount},
	{"count/sequential", "SeeDoctor -> PayTreatment", modeCount},
	{"count/parallel", "UpdateRefer & TakeTreatment", modeCount},
	{"exists/frequent", "SeeDoctor -> PayTreatment", modeExists},
	{"exists/absent", "NoSuchActivity -> SeeDoctor", modeExists},
}

// runSuite measures every suite query on one backend and writes the report
// (and a human-readable table to out).
func runSuite(out io.Writer, backend, jsonPath string, instances int, seed int64) error {
	var opts []wlq.Option
	switch backend {
	case "row":
	case "columnar":
		opts = append(opts, wlq.WithColumnar())
	default:
		return fmt.Errorf("unknown backend %q (want row or columnar)", backend)
	}
	log, err := wlq.ClinicLog(instances, seed)
	if err != nil {
		return err
	}
	engine := wlq.NewEngine(log, opts...)

	report := benchkit.NewReport(backend, benchkit.LogMeta{
		Source:     "clinic",
		Instances:  instances,
		Records:    log.Len(),
		Activities: len(log.Activities()),
		Seed:       seed,
	})
	rows := [][]string{{"bench", "query", "time", "incidents"}}
	for _, b := range suiteBenches {
		// One non-measured run captures the answer for the digest; Measure
		// then times steady-state evaluations (parse + optimize included,
		// evaluation dominates at suite log sizes).
		var (
			answer    string
			incidents int
			run       func()
		)
		switch b.mode {
		case modeIncidents:
			set, err := engine.Query(b.query)
			if err != nil {
				return fmt.Errorf("bench %s: %w", b.name, err)
			}
			answer, incidents = set.String(), set.Len()
			run = func() {
				if _, err := engine.Query(b.query); err != nil {
					panic(err)
				}
			}
		case modeCount:
			n, err := engine.Count(b.query)
			if err != nil {
				return fmt.Errorf("bench %s: %w", b.name, err)
			}
			answer, incidents = fmt.Sprintf("count:%d", n), n
			run = func() {
				if _, err := engine.Count(b.query); err != nil {
					panic(err)
				}
			}
		case modeExists:
			ok, err := engine.Exists(b.query)
			if err != nil {
				return fmt.Errorf("bench %s: %w", b.name, err)
			}
			answer = fmt.Sprintf("exists:%v", ok)
			run = func() {
				if _, err := engine.Exists(b.query); err != nil {
					panic(err)
				}
			}
		default:
			return fmt.Errorf("bench %s: unknown mode %q", b.name, b.mode)
		}
		// Min of three measurement rounds: the minimum is the standard
		// noise-robust statistic for microbenchmarks (GC pauses and
		// scheduler jitter only ever add time, never subtract it).
		d := benchkit.Measure(run)
		for round := 0; round < 2; round++ {
			if m := benchkit.Measure(run); m < d {
				d = m
			}
		}
		report.Benches = append(report.Benches, benchkit.BenchItem{
			Name:      b.name,
			Query:     b.query,
			NsPerOp:   d.Nanoseconds(),
			Incidents: incidents,
			Digest:    benchkit.Digest(answer),
		})
		rows = append(rows, []string{b.name, b.query, d.String(), fmt.Sprintf("%d", incidents)})
	}
	report.Finalize()

	fmt.Fprintf(out, "== backend suite: %s (clinic instances=%d seed=%d records=%d) ==\n",
		backend, instances, seed, log.Len())
	fmt.Fprint(out, benchkit.Align(rows))
	fmt.Fprintf(out, "combined answer digest: %s\n", report.Digest)
	if jsonPath != "" {
		if err := benchkit.WriteReport(jsonPath, report); err != nil {
			return err
		}
		fmt.Fprintf(out, "report written to %s\n", jsonPath)
	}
	return nil
}

// compareReports loads two reports and fails on any answer-digest or
// workload mismatch; on success it prints the speedup table.
func compareReports(out io.Writer, pathA, pathB string) error {
	a, err := benchkit.ReadReport(pathA)
	if err != nil {
		return err
	}
	b, err := benchkit.ReadReport(pathB)
	if err != nil {
		return err
	}
	table, err := benchkit.CompareReports(a, b)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "== %s (%s) vs %s (%s) ==\n", pathA, a.Backend, pathB, b.Backend)
	fmt.Fprint(out, table)
	fmt.Fprintln(out, "answer digests match")
	return nil
}
