package benchkit

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestMeasurePositive(t *testing.T) {
	d := Measure(func() {
		s := 0
		for i := 0; i < 1000; i++ {
			s += i
		}
		_ = s
	})
	if d <= 0 {
		t.Errorf("Measure = %v, want positive", d)
	}
}

func TestLinfit(t *testing.T) {
	// Perfect line y = 3x + 1.
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x + 1
	}
	slope, r2 := linfit(xs, ys)
	if math.Abs(slope-3) > 1e-9 || math.Abs(r2-1) > 1e-9 {
		t.Errorf("linfit = %g, %g; want 3, 1", slope, r2)
	}
	if s, r := linfit(nil, nil); s != 0 || r != 0 {
		t.Errorf("linfit(empty) = %g, %g", s, r)
	}
	// Degenerate x (all equal).
	if s, _ := linfit([]float64{1, 1}, []float64{0, 5}); s != 0 {
		t.Errorf("degenerate linfit slope = %g", s)
	}
	// Constant y: exact slope-0 fit.
	if s, r := linfit([]float64{1, 2, 3}, []float64{4, 4, 4}); s != 0 || r != 1 {
		t.Errorf("constant-y linfit = %g, %g", s, r)
	}
}

func TestFitPowerLaw(t *testing.T) {
	// Synthetic quadratic scaling: duration = x².
	sw := Sweep{Name: "quad", XLabel: "n"}
	for _, x := range []float64{10, 20, 40, 80, 160} {
		sw.Points = append(sw.Points, Point{X: x, Duration: time.Duration(x * x)})
	}
	exp, r2 := sw.FitPowerLaw()
	if math.Abs(exp-2) > 0.01 || r2 < 0.999 {
		t.Errorf("FitPowerLaw = %g (r²=%g), want 2", exp, r2)
	}
	// Non-positive points are skipped.
	sw.Points = append(sw.Points, Point{X: 0, Duration: 5}, Point{X: 5, Duration: 0})
	exp2, _ := sw.FitPowerLaw()
	if math.Abs(exp2-2) > 0.01 {
		t.Errorf("FitPowerLaw with junk points = %g", exp2)
	}
}

func TestSweepTable(t *testing.T) {
	sw := Sweep{
		Name:   "demo",
		XLabel: "n",
		Points: []Point{
			{X: 10, Duration: time.Millisecond, Extra: map[string]float64{"out": 5}},
			{X: 100, Duration: 10 * time.Millisecond, Extra: map[string]float64{"out": 50}},
		},
	}
	got := sw.Table()
	for _, want := range []string{"== demo ==", "n", "time", "out", "1ms", "100", "power-law fit"} {
		if !strings.Contains(got, want) {
			t.Errorf("Table missing %q:\n%s", want, got)
		}
	}
}

func TestRun(t *testing.T) {
	sw := Run("r", "x", []float64{1, 2}, func(x float64) (func(), map[string]float64) {
		return func() { time.Sleep(time.Microsecond) }, map[string]float64{"double": 2 * x}
	})
	if len(sw.Points) != 2 {
		t.Fatalf("points = %d", len(sw.Points))
	}
	if sw.Points[1].Extra["double"] != 4 {
		t.Errorf("extra = %v", sw.Points[1].Extra)
	}
}

func TestAlign(t *testing.T) {
	got := Align([][]string{{"a", "bb"}, {"ccc", "d"}})
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %v", lines)
	}
	if !strings.HasPrefix(lines[0], "a    bb") {
		t.Errorf("alignment wrong: %q", lines[0])
	}
	if Align(nil) != "" {
		t.Error("Align(nil) should be empty")
	}
}

func TestFormatX(t *testing.T) {
	if formatX(100) != "100" {
		t.Errorf("formatX(100) = %q", formatX(100))
	}
	if formatX(0.5) != "0.5" {
		t.Errorf("formatX(0.5) = %q", formatX(0.5))
	}
}
