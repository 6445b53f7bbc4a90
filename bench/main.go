// Command bench is the served-query benchmark: it generates a clinic log from
// a seed, builds cmd/wlq-serve, starts real server processes on loopback,
// drives one of four traffic mixes at them, checks every answer against the
// paper's Algorithm 1, and reports end-to-end metrics (-trace 0) or per-layer
// metrics from a traced in-process replay (-trace 1). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// spec is the part of BENCHMARK.json the program reads: metric units for
// printing, bounds for -aa, and the default run length.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec() (*spec, error) {
	data, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	return &s, json.Unmarshal(data, &s)
}

// units maps every declared metric to its unit.
func (s *spec) units() map[string]string {
	u := make(map[string]string)
	for _, m := range s.EndToEnd {
		u[m.Name] = m.Unit
	}
	for _, m := range s.PerLayer {
		u[m.Name] = m.Unit
	}
	return u
}

// report is out/report.json.
type report struct {
	Seed       int64      `json:"seed"`
	Seconds    float64    `json:"seconds"`
	Instances  int        `json:"instances"`
	NProc      int        `json:"nproc"`
	GoMaxProcs int        `json:"gomaxprocs"`
	GoVersion  string     `json:"go_version"`
	Commit     string     `json:"commit"`
	InputsS    float64    `json:"inputs_s"` // log generation, oracle and file writes: the benchmark's own cost
	Outcomes   []*outcome `json:"outcomes"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "all", "eval-mix, hot-mix, live-mix, fanout-2w or all")
		seed     = fs.Int64("seed", 1, "seed of the generated log, schedules and append stream")
		seconds  = fs.Float64("seconds", 0, "measured seconds per workload: the driver passes run_seconds of BENCHMARK.json, which is also the default")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced replay")
		aa       = fs.Bool("aa", false, "run every selected workload twice and hold the difference against each bound")
		smoke    = fs.Bool("smoke", false, "tiny log, in-process servers, no child processes")
		jsonPath = fs.String("json", filepath.Join("out", "report.json"), "where to write the full report")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *seconds == 0 {
		*seconds = float64(sp.RunSeconds)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}
	if *aa && *trace != 0 {
		fmt.Fprintln(os.Stderr, "bench: -aa compares end-to-end metrics; use it with -trace 0")
		return 2
	}
	selected := workloads
	if *workload != "all" {
		w, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		selected = []workloadDef{w}
	}

	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, instances: clinicInstances,
		setups: 5, outDir: filepath.Dir(*jsonPath)}
	if *smoke {
		cfg.instances, cfg.setups, cfg.seconds = smokeInstances, 1, smokeSeconds
	}
	ok, err := execute(stdout, sp, selected, cfg, *smoke, *aa, *jsonPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	if err != nil || !ok {
		return 1
	}
	return 0
}

// execute runs the selected workloads and writes the report. ok is false
// when an operation failed or an A/A difference exceeded its bound. Servers
// and temporary files are removed on return and on SIGINT/SIGTERM.
func execute(stdout io.Writer, sp *spec, selected []workloadDef, cfg runConfig, smoke, aa bool, jsonPath string) (ok bool, err error) {
	clean := &cleaner{}
	defer clean.run()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	defer func() { signal.Stop(sig); close(done) }()
	go func() {
		select {
		case <-sig:
			clean.run()
			os.Exit(130)
		case <-done:
		}
	}()

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return false, err
	}
	if cfg.tmpDir, err = os.MkdirTemp(cfg.outDir, "tmp-"); err != nil {
		return false, err
	}
	clean.add(func() { os.RemoveAll(cfg.tmpDir) })
	h := &harness{inproc: smoke, clean: clean}
	if !h.inproc {
		if h.bin, err = buildServer(cfg.tmpDir); err != nil {
			return false, err
		}
	}

	// The append stream feeds live workloads and the traced replay's write path.
	stream := cfg.trace
	for _, w := range selected {
		stream = stream || w.appender
	}
	t0 := time.Now()
	in, err := makeInputs(cfg, stream)
	if err != nil {
		return false, err
	}

	rep := &report{Seed: cfg.seed, Seconds: cfg.seconds, Instances: cfg.instances, NProc: runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: gitCommit(),
		InputsS: time.Since(t0).Seconds()}
	units := sp.units()
	ok = true
	for _, w := range selected {
		runs := 1
		if aa {
			runs = 2
		}
		var outs []*outcome
		for i := 0; i < runs; i++ {
			out, err := runWorkload(h, w, in, cfg)
			if err != nil {
				return false, err
			}
			printOutcome(stdout, out, units, cfg)
			ok = ok && out.Failed == 0
			outs = append(outs, out)
		}
		if aa {
			ok = printAA(stdout, sp, outs[0], outs[1]) && ok
		}
		rep.Outcomes = append(rep.Outcomes, outs...)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(jsonPath, data, 0o644); err != nil {
		return false, err
	}
	if len(selected) == 1 && !aa {
		fmt.Fprintln(stdout, resultLine(rep.Outcomes[0], units))
	}
	return ok, nil
}

// gitCommit names the checkout's commit, or "unknown" outside a repository.
func gitCommit() string {
	out, err := exec.Command("git", "-C", repoRoot, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// metricsOf returns the outcome's metric set: end-to-end, or per-layer on a
// traced run.
func metricsOf(o *outcome) map[string]float64 {
	if o.PerLayer != nil {
		return o.PerLayer
	}
	return o.EndToEnd
}

func printOutcome(w io.Writer, o *outcome, units map[string]string, cfg runConfig) {
	fmt.Fprintf(w, "== %s: seed %d, %.1f s measured, %d attempted, %d failed ==\n",
		o.Workload, cfg.seed, o.WindowS, o.Attempted, o.Failed)
	for _, f := range o.Failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
	for _, n := range o.Notes {
		fmt.Fprintln(w, "  NOTE:", n)
	}
	m := metricsOf(o)
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-30s %14.4f %s\n", name, m[name], units[name])
	}
	if o.Raw != nil {
		f := refFactor(o.RefMS)
		fmt.Fprintf(w, "  timings above are at the nominal machine speed: the reference kernel took %.4f ms (lower quartile of %d samples) against %.1f ms nominal, factor %.4f. As the clock read them:",
			f*refNominalMS, len(o.RefMS), refNominalMS, f)
		for _, name := range names {
			fmt.Fprintf(w, " %s %.4f", name, o.Raw[name])
		}
		fmt.Fprintln(w)
	}
	if o.Live != nil {
		fmt.Fprintf(w, "  %d append batches of %d records acknowledged; from due time p50 %.4f ms, p95 %.4f ms; generator lateness p95 %.4f ms\n",
			o.Acked, appendBatch, o.Live["live.append_p50_ms"], o.Live["live.append_p95_ms"], o.Live["live.append_late_p95_ms"])
	}
	fmt.Fprintf(w, "  %d query samples; pooled over the window p95 %.4f ms, p99 %.4f ms (not gated); highest percentile with >=10 samples beyond it: p%g\n",
		o.Samples, o.P95MS, o.P99MS, o.TailPct)
	for _, line := range o.ServerArgs {
		fmt.Fprintln(w, "  server:", line)
	}
}

// printAA prints, per end-to-end metric, the relative difference of two runs
// of the same code beside the metric's bound, and reports whether all hold.
// The append latencies cannot be end-to-end metrics of BENCHMARK.json (they
// exist on one workload only), so they are held to appendBound here.
func printAA(w io.Writer, sp *spec, a, b *outcome) bool {
	ok := true
	fmt.Fprintf(w, "-- A/A %s --\n", a.Workload)
	row := func(name, unit string, va, vb, bound float64) {
		diff := math.Abs(va-vb) / math.Min(va, vb)
		verdict := "ok"
		if diff > bound {
			verdict, ok = "EXCEEDS", false
		}
		fmt.Fprintf(w, "  %-22s %12.4f %12.4f %-5s diff %5.1f%%  bound %4.0f%%  %s\n",
			name, va, vb, unit, 100*diff, 100*bound, verdict)
	}
	for _, m := range sp.EndToEnd {
		row(m.Name, m.Unit, a.EndToEnd[m.Name], b.EndToEnd[m.Name], m.Bound)
	}
	if a.Live != nil {
		for _, name := range []string{"live.append_p50_ms", "live.append_p95_ms"} {
			row(name, "ms", a.Live[name], b.Live[name], appendBound)
		}
	}
	return ok
}

// resultLine is the driver's contract: one JSON object, last on stdout.
func resultLine(o *outcome, units map[string]string) string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric)
	for name, v := range metricsOf(o) {
		metrics[name] = metric{v, units[name]}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": o.Failed == 0, "attempted": o.Attempted, "failed": o.Failed, "metrics": metrics,
	})
	return string(line)
}
