package experiments

import (
	"fmt"
	"io"
	"math"

	"wlq/internal/benchkit"
	"wlq/internal/gen"
)

// runTheorem1 (E6) measures the O(m^k) worst case: the left-deep parallel
// chain ((t ⊕ t) ⊕ t)… over a single-instance log of m identical records.
// Two sweeps: m at fixed k (expect slope ≈ k on log-log axes), and k at
// fixed m (expect geometric growth).
func runTheorem1(w io.Writer, quick bool) error {
	fixedK := 3
	ms := []float64{8, 12, 16, 24, 32}
	if quick {
		ms = []float64{6, 8, 10}
	}
	mSweep := benchkit.Run(
		fmt.Sprintf("Theorem 1 — worst case, m sweep at k=%d", fixedK), "m", ms,
		func(x float64) (func(), map[string]float64) {
			m := int(x)
			l := gen.WorstCaseLog(m)
			p := gen.WorstCasePattern(fixedK)
			out := float64(naiveEval(l, p))
			return func() { naiveEval(l, p) },
				map[string]float64{"|out|": out, "C(m,k+1)": choose(m, fixedK+1)}
		})
	fmt.Fprint(w, mSweep.Table())
	exp, r2 := mSweep.FitPowerLaw()
	fmt.Fprintf(w, "measured slope %.2f (r²=%.3f); expected ≈ k+1 = %d.\n", exp, r2, fixedK+1)
	fmt.Fprintln(w, "note: Theorem 1 states O(m^k), counting the O(m^k) incidents produced;")
	fmt.Fprintln(w, "the final ⊕ join additionally pays n1·n2·(k1+k2) pair checks with")
	fmt.Fprintln(w, "n1 = C(m,k) ≈ m^k/k!, so total work is Θ(m^(k+1)) — the measured")
	fmt.Fprintln(w, "exponent tracks k+1, i.e. the paper's bound is loose by one factor of m.")
	fmt.Fprintln(w)

	fixedM := 20
	ks := []float64{1, 2, 3, 4, 5}
	if quick {
		fixedM = 10
		ks = []float64{1, 2, 3}
	}
	kSweep := benchkit.Run(
		fmt.Sprintf("Theorem 1 — worst case, k sweep at m=%d", fixedM), "k", ks,
		func(x float64) (func(), map[string]float64) {
			k := int(x)
			l := gen.WorstCaseLog(fixedM)
			p := gen.WorstCasePattern(k)
			out := float64(naiveEval(l, p))
			return func() { naiveEval(l, p) },
				map[string]float64{"|out|": out, "C(m,k+1)": choose(fixedM, k+1)}
		})
	fmt.Fprint(w, kSweep.Table())
	fmt.Fprintln(w, "expected: geometric growth in k; |out| = C(m, k+1) exactly (sets of k+1 records)")
	return nil
}

// choose returns the binomial coefficient C(n, k) as a float64.
func choose(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	out := 1.0
	for i := 0; i < k; i++ {
		out *= float64(n-i) / float64(i+1)
	}
	return math.Round(out)
}
