// Benchmarks regenerating the paper's evaluation artifacts as testing.B
// series — one benchmark family per experiment in DESIGN.md (E3–E10).
// cmd/wlq-bench prints the same sweeps as tables with power-law fits.
//
//	go test -bench=. -benchmem
package wlq_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"wlq"
	"wlq/internal/analytics"
	"wlq/internal/clinic"
	"wlq/internal/core/eval"
	"wlq/internal/core/pattern"
	"wlq/internal/core/rewrite"
	"wlq/internal/gen"
	"wlq/internal/logio"
	"wlq/internal/stream"
	"wlq/internal/wlog"
)

// evalN runs the pattern with the given strategy and reports the result
// size to the benchmark (as a custom metric, so the series shape is
// visible next to the timing).
func evalN(b *testing.B, ix *eval.Index, p pattern.Node, strategy eval.Strategy) {
	b.Helper()
	var out int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = eval.New(ix, eval.Options{Strategy: strategy}).Eval(p).Len()
	}
	b.ReportMetric(float64(out), "incidents")
}

// BenchmarkConsecutiveScaling is experiment E3 (Lemma 1 bullet 1): the ⊙
// join over alternating logs; n1 = n2 = rounds.
func BenchmarkConsecutiveScaling(b *testing.B) {
	for _, rounds := range []int{250, 1000, 4000} {
		l := gen.Alternating([]string{"A", "B"}, rounds)
		ix := eval.NewIndex(l)
		p := pattern.MustParse("A . B")
		b.Run(fmt.Sprintf("n=%d", rounds), func(b *testing.B) {
			evalN(b, ix, p, eval.StrategyNaive)
		})
	}
}

// BenchmarkSequentialScaling is experiment E3 (Lemma 1 bullet 2): the ≺
// join over block logs; output is n².
func BenchmarkSequentialScaling(b *testing.B) {
	for _, n := range []int{50, 100, 200, 400} {
		l := gen.Blocks("A", n, "B", n)
		ix := eval.NewIndex(l)
		p := pattern.MustParse("A -> B")
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			evalN(b, ix, p, eval.StrategyNaive)
		})
	}
}

// BenchmarkChoiceScaling is experiment E4 (Lemma 1 bullet 3): the ⊗ join
// with full duplicate elimination (identical operand sets of size n²).
func BenchmarkChoiceScaling(b *testing.B) {
	for _, n := range []int{8, 16, 24} {
		l := gen.Blocks("A", n, "B", n)
		ix := eval.NewIndex(l)
		p := pattern.MustParse("(A -> B) | (A -> B)")
		b.Run(fmt.Sprintf("n1=%d", n*n), func(b *testing.B) {
			evalN(b, ix, p, eval.StrategyNaive)
		})
	}
}

// BenchmarkParallelScaling is experiment E5 (Lemma 1 bullet 4): the ⊕ join
// over disjoint blocks; every pair unions.
func BenchmarkParallelScaling(b *testing.B) {
	for _, n := range []int{50, 100, 200, 400} {
		l := gen.Blocks("A", n, "B", n)
		ix := eval.NewIndex(l)
		p := pattern.MustParse("A & B")
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			evalN(b, ix, p, eval.StrategyNaive)
		})
	}
}

// BenchmarkWorstCaseDepth is experiment E6 (Theorem 1): the left-deep ⊕
// chain over the single-activity log, k swept at fixed m. Time and output
// grow geometrically in k.
func BenchmarkWorstCaseDepth(b *testing.B) {
	const m = 20
	l := gen.WorstCaseLog(m)
	ix := eval.NewIndex(l)
	for k := 1; k <= 4; k++ {
		p := gen.WorstCasePattern(k)
		b.Run(fmt.Sprintf("m=%d/k=%d", m, k), func(b *testing.B) {
			evalN(b, ix, p, eval.StrategyNaive)
		})
	}
}

// BenchmarkWorstCaseLogSize is experiment E6's m sweep at fixed k: expect
// slope ≈ k on log-log axes (O(m^k)).
func BenchmarkWorstCaseLogSize(b *testing.B) {
	const k = 3
	p := gen.WorstCasePattern(k)
	for _, m := range []int{8, 16, 32} {
		ix := eval.NewIndex(gen.WorstCaseLog(m))
		b.Run(fmt.Sprintf("k=%d/m=%d", k, m), func(b *testing.B) {
			evalN(b, ix, p, eval.StrategyNaive)
		})
	}
}

// BenchmarkNaiveVsMerge is experiment E9: the published Algorithm 1 joins
// vs the sorted-merge variants on selectivity extremes.
func BenchmarkNaiveVsMerge(b *testing.B) {
	const n = 2000
	workloads := []struct {
		name  string
		log   *wlog.Log
		query string
	}{
		{"seq-zero-matches", gen.Blocks("B", n, "A", n), "A -> B"},
		{"cons-one-match", gen.Blocks("A", n, "B", n), "A . B"},
		{"choice-duplicates", gen.Blocks("A", n/40, "B", n/40), "(A -> B) | (A -> B)"},
		{"parallel-disjoint", gen.Blocks("A", n/4, "B", n/4), "A & B"},
	}
	for _, wl := range workloads {
		ix := eval.NewIndex(wl.log)
		p := pattern.MustParse(wl.query)
		for _, strategy := range []eval.Strategy{eval.StrategyNaive, eval.StrategyMerge} {
			b.Run(wl.name+"/"+strategy.String(), func(b *testing.B) {
				evalN(b, ix, p, strategy)
			})
		}
	}
}

// BenchmarkOptimizerAblation is experiment E8: factorable and skewed
// queries evaluated as written vs through the Theorem 2–5 optimizer
// (optimization time included).
func BenchmarkOptimizerAblation(b *testing.B) {
	l := gen.MustRandomLog(gen.LogParams{
		Instances: 60, MeanLength: 40, Alphabet: gen.Alphabet(8), Skew: 1.5, Seed: 99,
	})
	ix := eval.NewIndex(l)
	queries := []struct {
		name  string
		query string
	}{
		{"factorable", "(Act00 -> Act01) | (Act00 -> Act02) | (Act00 -> Act03)"},
		{"skewed-chain", "Act00 -> Act01 -> Act02 -> Act07"},
		{"skewed-parallel", "Act00 & Act06 & Act07"},
	}
	for _, q := range queries {
		p := pattern.MustParse(q.query)
		b.Run(q.name+"/as-written", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eval.New(ix, eval.Options{}).Eval(p)
			}
		})
		b.Run(q.name+"/optimized", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				op, _ := rewrite.Optimize(p, ix)
				eval.New(ix, eval.Options{}).Eval(op)
			}
		})
	}
}

// BenchmarkAnalytics is experiment E10: the Section 1 motivating queries on
// generated clinic logs.
func BenchmarkAnalytics(b *testing.B) {
	for _, instances := range []int{100, 400, 1600} {
		l, err := clinic.Generate(instances, 7)
		if err != nil {
			b.Fatal(err)
		}
		ix := eval.NewIndex(l)
		yearly := pattern.MustParse("GetRefer[balance>5000]")
		anomaly := pattern.MustParse("GetReimburse -> UpdateRefer")
		b.Run(fmt.Sprintf("yearly-report/instances=%d", instances), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				set := eval.New(ix, eval.Options{}).Eval(yearly)
				analytics.GroupBy(set, analytics.ByAttr(ix, "year"))
			}
		})
		b.Run(fmt.Sprintf("anomaly-full/instances=%d", instances), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eval.New(ix, eval.Options{}).Eval(anomaly)
			}
		})
		b.Run(fmt.Sprintf("anomaly-exists/instances=%d", instances), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eval.New(ix, eval.Options{}).Exists(anomaly)
			}
		})
	}
}

// BenchmarkIndexBuild measures Algorithm 2's LogRecordsDict construction.
func BenchmarkIndexBuild(b *testing.B) {
	for _, instances := range []int{100, 1000} {
		l, err := clinic.Generate(instances, 3)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("instances=%d", instances), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eval.NewIndex(l)
			}
		})
	}
}

// BenchmarkParse measures the shunting-yard parser (Algorithm 3).
func BenchmarkParse(b *testing.B) {
	queries := map[string]string{
		"small": "A -> B",
		"deep":  "A -> (B . (C & (D | (E -> (F . G)))))",
		"wide":  "A | B | C | D | E | F | G | H | I | J",
		"guarded": `GetRefer[balance>5000][hospital="Public Hospital"] -> ` +
			`GetReimburse[out.reimburse>=1000]`,
	}
	for name, q := range queries {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pattern.Parse(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLogIO measures the serialization substrate: encoding, reading
// JSONL records, and loading a JSONL file into a store as wlq-serve loads a
// -log file. The read and load series report allocations per record.
func BenchmarkLogIO(b *testing.B) {
	l, err := clinic.Generate(500, 3)
	if err != nil {
		b.Fatal(err)
	}
	for _, format := range []logio.Format{logio.FormatJSONL, logio.FormatText} {
		b.Run("encode/"+format.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := logio.Encode(discard{}, l, format); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	var jsonl bytes.Buffer
	if err := logio.Encode(&jsonl, l, logio.FormatJSONL); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "clinic.jsonl")
	if err := wlq.SaveLog(path, l); err != nil {
		b.Fatal(err)
	}
	b.Run("decode/jsonl", func(b *testing.B) {
		perRecord(b, l.Len(), func() error {
			return logio.NewReader(bytes.NewReader(jsonl.Bytes()), logio.FormatJSONL).Each(func(wlog.Record) {})
		})
	})
	b.Run("load/jsonl", func(b *testing.B) {
		perRecord(b, l.Len(), func() error {
			_, err := loadJSONL(path)
			return err
		})
	})
}

// perRecord times fn and reports its heap allocations per record.
func perRecord(b *testing.B, records int, fn func() error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		if err := fn(); err != nil {
			b.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*records), "allocs/record")
}

// discard is a no-op writer (io.Discard without importing io for one use).
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// monitorWatches are the watches the monitor benchmarks register.
var monitorWatches = []string{
	"GetReimburse -> UpdateRefer",
	"SeeDoctor -> SeeDoctor -> SeeDoctor",
	"UpdateRefer -> UpdateRefer",
}

// BenchmarkMonitorIngest is experiment E12's core cost: per-record
// ingestion with three active watches, amortized.
func BenchmarkMonitorIngest(b *testing.B) {
	l, err := clinic.Generate(200, 23)
	if err != nil {
		b.Fatal(err)
	}
	records := l.Records()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := stream.NewMonitor(nil)
		for j, q := range monitorWatches {
			if err := m.Watch(fmt.Sprintf("w%d", j), q); err != nil {
				b.Fatal(err)
			}
		}
		for _, r := range records {
			if err := m.Ingest(r); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(records)), "records/op")
}

// BenchmarkMonitorIngestLogWatched replays a whole log through IngestLog,
// one batch, with BenchmarkMonitorIngest's three watches registered.
func BenchmarkMonitorIngestLogWatched(b *testing.B) {
	for _, n := range []int{1000, 5000} {
		b.Run(fmt.Sprintf("instances=%d", n), func(b *testing.B) {
			l, err := clinic.Generate(n, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var alerts int
			for i := 0; i < b.N; i++ {
				m := stream.NewMonitor(nil)
				for j, q := range monitorWatches {
					if err := m.Watch(fmt.Sprintf("w%d", j), q); err != nil {
						b.Fatal(err)
					}
				}
				if err := m.IngestLog(l); err != nil {
					b.Fatal(err)
				}
				alerts = m.Alerts()
			}
			b.ReportMetric(float64(l.Len()), "records/op")
			b.ReportMetric(float64(alerts), "alerts/op")
		})
	}
}

// BenchmarkParallelEvaluation is experiment E11 as a testing.B series.
func BenchmarkParallelEvaluation(b *testing.B) {
	l, err := clinic.Generate(400, 7)
	if err != nil {
		b.Fatal(err)
	}
	ix := eval.NewIndex(l)
	e := eval.New(ix, eval.Options{})
	p := pattern.MustParse("(!A & !B) -> GetReimburse")
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.EvalParallel(p, workers)
			}
		})
	}
}
