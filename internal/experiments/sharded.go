package experiments

import (
	"context"
	"fmt"
	"io"

	"wlq/internal/benchkit"
	"wlq/internal/clinic"
	"wlq/internal/core/eval"
	"wlq/internal/core/incident"
	"wlq/internal/core/pattern"
)

// runSharded (E13) measures the per-instance failure domains of the
// evaluator's one scan: because incidents never span workflow instances
// (Definition 4), the log splits into contiguous wid chunks, one per
// goroutine, and every instance is evaluated under its own isolation
// boundary. Two claims are checked: the split is free — the answer equals
// the serial one at every goroutine count — and it buys fault isolation: a
// fault that costs an all-or-nothing (strict) caller the whole query costs a
// partial one only the poisoned instances, which the answer names exactly.
func runSharded(w io.Writer, quick bool) error {
	instances := 400
	if quick {
		instances = 80
	}
	l, err := clinic.Generate(instances, 7)
	if err != nil {
		return err
	}
	ix := eval.NewIndex(l)
	e := eval.New(ix, eval.Options{})
	// The E11 per-instance-quadratic query, so each chunk carries real work.
	p := pattern.MustParse("(!A & !B) -> GetReimburse")
	serialSet := e.Eval(p)
	ctx := context.Background()
	wids := ix.WIDs()

	sw := benchkit.Run(
		fmt.Sprintf("scan in failure domains, %d instances", instances),
		"workers", []float64{1, 2, 4, 8},
		func(v float64) (func(), map[string]float64) {
			a, err := e.AnswerCtx(ctx, p, wids, int(v), eval.ShapeIncidents, nil)
			same := 0.0
			if err == nil && len(a.Excluded) == 0 && incident.MergeSorted(a.Incidents...).Equal(serialSet) {
				same = 1
			}
			return func() { e.AnswerCtx(ctx, p, wids, int(v), eval.ShapeIncidents, nil) },
				map[string]float64{"|incL|": float64(serialSet.Len()), "equal": same}
		})
	fmt.Fprint(w, sw.Table())
	fmt.Fprintln(w, "expected: equal=1 everywhere — splitting the scan never changes the")
	fmt.Fprintln(w, "answer; the per-instance boundary (a deferred recover) stays cheap")
	fmt.Fprintln(w)

	// Fault isolation: poison an eighth of the instances with a persistent
	// panic — the last ones the plan reads, those with a GetReimburse record
	// (a scan skips the others, whose share of the answer is empty) — and
	// read one evaluation both ways. Strict loses the query; partial keeps
	// the other seven eighths and names the rest.
	var reads []uint64
	for _, wid := range wids {
		if len(ix.ActivitySeqs(wid, clinic.ActGetReimburse)) > 0 {
			reads = append(reads, wid)
		}
	}
	poisoned := reads[len(reads)-len(wids)/8:]
	isPoisoned := make(map[uint64]bool)
	for _, wid := range poisoned {
		isPoisoned[wid] = true
	}
	var kept []incident.Incident
	for _, o := range serialSet.Incidents() {
		if !isPoisoned[o.WID()] {
			kept = append(kept, o)
		}
	}
	want := incident.NewSet(kept...)
	eval.SetEvalHook(func(wid uint64) {
		if isPoisoned[wid] {
			panic("injected fault")
		}
	})
	defer eval.SetEvalHook(nil)
	a, err := e.AnswerCtx(ctx, p, wids, 4, eval.ShapeIncidents, nil)
	if err != nil {
		return err
	}
	exact := len(a.Excluded) == len(poisoned)
	for i, x := range a.Excluded {
		exact = exact && x.WID == poisoned[i]
	}
	strict := "complete"
	if a.Strict(nil) != nil {
		strict = "query lost"
	}
	covered := len(wids) - len(a.Excluded)
	rows := [][]string{
		{"mode", "outcome", "incidents", "wids covered", "wids excluded", "equal"},
		{"strict", strict, "0", fmt.Sprintf("0/%d", len(wids)), "-", "-"},
		{"partial", fmt.Sprintf("partial (%d/%d)", covered, len(wids)), fmt.Sprint(a.Count),
			fmt.Sprintf("%d/%d", covered, len(wids)), fmt.Sprintf("%d (exact: %v)", len(a.Excluded), exact),
			fmt.Sprint(incident.MergeSorted(a.Incidents...).Equal(want))},
	}
	fmt.Fprintf(w, "== fault isolation: persistent panic in the last %d instances with a %s ==\n", len(poisoned), clinic.ActGetReimburse)
	fmt.Fprint(w, benchkit.Align(rows))
	fmt.Fprintln(w, "expected: strict loses the query outright; partial returns the other")
	fmt.Fprintln(w, "instances' incidents (equal: the serial answer restricted to them) and")
	fmt.Fprintln(w, "names exactly the poisoned wids")
	return nil
}
