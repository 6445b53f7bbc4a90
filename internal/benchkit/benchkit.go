// Package benchkit is the measurement harness behind cmd/wlq-bench and
// EXPERIMENTS.md: timed parameter sweeps, aligned table rendering, and a
// log-log least-squares fit used to check that measured scaling curves have
// the exponent the paper's complexity analysis predicts (Lemma 1,
// Theorem 1).
package benchkit

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Measure times fn, repeating it until at least minDuration has elapsed (or
// maxReps runs), and returns the mean duration per run. A garbage collection
// and a discarded warmup run precede the measurements so earlier workloads'
// heap pressure does not bleed into the series.
func Measure(fn func()) time.Duration {
	const (
		minDuration = 20 * time.Millisecond
		maxReps     = 1000
	)
	runtime.GC()
	fn() // warmup
	var total time.Duration
	reps := 0
	for total < minDuration && reps < maxReps {
		start := time.Now()
		fn()
		total += time.Since(start)
		reps++
	}
	return total / time.Duration(reps)
}

// Point is one row of a sweep: a parameter value and its measurement.
type Point struct {
	// X is the swept parameter (n1·n2, m, k, ...).
	X float64
	// Duration is the measured mean time.
	Duration time.Duration
	// Extra holds additional columns (e.g. output cardinality), rendered
	// in declaration order.
	Extra map[string]float64
}

// Sweep is a named series of measurements.
type Sweep struct {
	Name   string
	XLabel string
	Points []Point
}

// Run builds a sweep by measuring fn at each parameter value. setup
// prepares the workload for x and returns the closure to time plus any
// extra columns.
func Run(name, xlabel string, xs []float64, setup func(x float64) (func(), map[string]float64)) Sweep {
	sw := Sweep{Name: name, XLabel: xlabel}
	for _, x := range xs {
		fn, extra := setup(x)
		sw.Points = append(sw.Points, Point{X: x, Duration: Measure(fn), Extra: extra})
	}
	return sw
}

// FitPowerLaw fits duration ≈ c·x^e by least squares on log-log axes and
// returns the exponent e and the coefficient of determination r². Points
// with non-positive values are skipped; fewer than two usable points yield
// (0, 0).
func (s Sweep) FitPowerLaw() (exponent, r2 float64) {
	var xs, ys []float64
	for _, p := range s.Points {
		if p.X > 0 && p.Duration > 0 {
			xs = append(xs, math.Log(p.X))
			ys = append(ys, math.Log(float64(p.Duration)))
		}
	}
	return linfit(xs, ys)
}

// linfit returns the slope and r² of the least-squares line through (x, y).
func linfit(xs, ys []float64) (slope, r2 float64) {
	n := float64(len(xs))
	if n < 2 {
		return 0, 0
	}
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	denom := n*sxx - sx*sx
	if denom == 0 {
		return 0, 0
	}
	slope = (n*sxy - sx*sy) / denom
	// r² via the correlation coefficient.
	varY := n*syy - sy*sy
	if varY == 0 {
		return slope, 1 // constant y: the fit is exact (slope 0)
	}
	r := (n*sxy - sx*sy) / math.Sqrt(denom*varY)
	return slope, r * r
}

// Table renders the sweep as an aligned text table with the X column, the
// duration, and any extra columns (sorted by name).
func (s Sweep) Table() string {
	extraCols := map[string]struct{}{}
	for _, p := range s.Points {
		for k := range p.Extra {
			extraCols[k] = struct{}{}
		}
	}
	cols := make([]string, 0, len(extraCols))
	for k := range extraCols {
		cols = append(cols, k)
	}
	sort.Strings(cols)

	header := append([]string{s.XLabel, "time"}, cols...)
	rows := [][]string{header}
	for _, p := range s.Points {
		row := []string{formatX(p.X), p.Duration.String()}
		for _, c := range cols {
			row = append(row, formatX(p.Extra[c]))
		}
		rows = append(rows, row)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", s.Name)
	sb.WriteString(Align(rows))
	if exp, r2 := s.FitPowerLaw(); r2 > 0 {
		fmt.Fprintf(&sb, "power-law fit: time ~ %s^%.2f (r²=%.3f)\n", s.XLabel, exp, r2)
	}
	return sb.String()
}

func formatX(x float64) string {
	if x == math.Trunc(x) && math.Abs(x) < 1e15 {
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%.4g", x)
}

// Align renders rows with space-padded, left-aligned columns.
func Align(rows [][]string) string {
	if len(rows) == 0 {
		return ""
	}
	widths := make([]int, 0)
	for _, row := range rows {
		for i, cell := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	for _, row := range rows {
		for i, cell := range row {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			for pad := len(cell); pad < widths[i] && i < len(row)-1; pad++ {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
