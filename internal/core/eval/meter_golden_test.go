package eval_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"wlq/internal/clinic"
	"wlq/internal/core/eval"
	"wlq/internal/core/pattern"
	"wlq/internal/wlog"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files from the current output")

// meterGoldenPlans: two with repeated sub-patterns (an atom, a whole
// subtree), a right-deep chain, a guarded and a negated atom, and two plain
// shapes.
var meterGoldenPlans = []string{
	"GetRefer -> GetReimburse",
	"(GetRefer -> SeeDoctor) | (GetRefer -> PayTreatment)",
	"(SeeDoctor . PayTreatment) & (SeeDoctor . PayTreatment)",
	"GetRefer -> (CheckIn -> (SeeDoctor -> PayTreatment))",
	"GetRefer[balance>1000] -> !SeeDoctor",
	"(GetRefer | CheckIn) & (SeeDoctor . PayTreatment)",
}

// TestMeterSnapshotGolden pins the per-node accounting — evals, memo hits,
// operand sizes, comparisons, outputs, the Lemma 1 prediction, in pre-order
// — to what the evaluator reported before plan nodes were numbered at
// compile time (the golden file was generated at that commit). The merge
// strategy's sections were regenerated when its scans began to skip the
// instances the plan's required-atom formula rules out: they meter only the
// instances evaluated, and with the skip disabled the file is unchanged.
// Regenerate with `go test ./internal/core/eval -run TestMeterSnapshotGolden -update`.
func TestMeterSnapshotGolden(t *testing.T) {
	generated, err := clinic.Generate(50, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, lg := range []struct {
		name string
		log  *wlog.Log
	}{{"fig3", clinic.Fig3()}, {"clinic:50:1", generated}} {
		ix := eval.NewIndex(lg.log)
		for _, strat := range []eval.Strategy{eval.StrategyNaive, eval.StrategyMerge} {
			for _, q := range meterGoldenPlans {
				p := pattern.MustParse(q)
				m := eval.NewMeter(p)
				eval.New(ix, eval.Options{Strategy: strat, Meter: m}).Eval(p)
				fmt.Fprintf(&got, "# %s %v %s\n", lg.name, strat, q)
				for _, st := range m.Snapshot() {
					fmt.Fprintf(&got, "%s\tatom=%v op=%v k=%d,%d evals=%d memo=%d n=%d,%d cmp=%d out=%d pred=%d\n",
						st.Node, st.Atom, st.Op, st.K1, st.K2, st.Evals, st.MemoHits,
						st.LeftInputs, st.RightInputs, st.Comparisons, st.Outputs, st.Predicted)
				}
			}
		}
	}
	path := filepath.Join("testdata", "meter_snapshot.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("meter snapshot differs from %s\ngot:\n%s", path, got.Bytes())
	}
}

// TestMeterOpsAddUpOverDisjointParts: a cluster coordinator's cost table is
// its workers' counters added into one meter, each worker's over its own part
// of the instances. A meter over the whole log equals the AddOps sum of
// meters over two disjoint halves of its instances, under both strategies,
// in a counted and an enumerated shape; counters from another plan add
// nothing.
func TestMeterOpsAddUpOverDisjointParts(t *testing.T) {
	generated, err := clinic.Generate(50, 1)
	if err != nil {
		t.Fatal(err)
	}
	ix := eval.NewIndex(generated)
	wids := ix.WIDs()
	halves := [][]uint64{wids[:len(wids)/2], wids[len(wids)/2:]}
	metered := func(p pattern.Node, strat eval.Strategy, shape eval.Shape, wids []uint64) *eval.Meter {
		m := eval.NewMeter(p)
		if _, err := eval.New(ix, eval.Options{Strategy: strat, Meter: m}).ServeCtx(context.Background(), p, wids, 1, shape, nil); err != nil {
			t.Fatal(err)
		}
		return m
	}
	answers := map[bool]int{}
	for _, strat := range []eval.Strategy{eval.StrategyNaive, eval.StrategyMerge} {
		for _, shape := range []eval.Shape{eval.ShapeCount, eval.ShapeIncidents} {
			for _, q := range meterGoldenPlans {
				p := pattern.MustParse(q)
				answers[eval.Counted(p, shape, strat)]++
				sum := eval.NewMeter(p)
				for _, half := range halves {
					if !sum.AddOps(metered(p, strat, shape, half).Ops()) {
						t.Fatalf("%v %v %s: a meter over the same plan refused the counters", strat, shape, q)
					}
				}
				if whole, parts := metered(p, strat, shape, wids).Ops(), sum.Ops(); !slices.Equal(whole, parts) {
					t.Errorf("%v %v %s: whole log %v, sum of the halves %v", strat, shape, q, whole, parts)
				}
			}
		}
	}
	if answers[true] == 0 || answers[false] == 0 {
		t.Fatalf("counted/enumerated cases %v: want both", answers)
	}
	other := eval.NewMeter(pattern.MustParse("A -> B"))
	if other.AddOps(eval.NewMeter(pattern.MustParse(meterGoldenPlans[1])).Ops()) || other.Ops()[0] != (eval.NodeOps{}) {
		t.Fatal("counters of another plan were added")
	}
}
