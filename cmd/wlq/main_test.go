package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wlq"
)

// runOK executes run and returns its output, failing the test on error.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, strings.NewReader(""), &buf); err != nil {
		t.Fatalf("run(%v): %v\noutput:\n%s", args, err, buf.String())
	}
	return buf.String()
}

// runErr executes run expecting an error.
func runErr(t *testing.T, args ...string) error {
	t.Helper()
	var buf bytes.Buffer
	err := run(args, strings.NewReader(""), &buf)
	if err == nil {
		t.Fatalf("run(%v): want error, output:\n%s", args, buf.String())
	}
	return err
}

func TestQueryFig3(t *testing.T) {
	out := runOK(t, "-log", "fig3", "-q", "UpdateRefer -> GetReimburse")
	if !strings.Contains(out, "1 incident(s)") || !strings.Contains(out, "wid=2:{5,9}") {
		t.Errorf("output:\n%s", out)
	}
}

func TestQueryWithRecords(t *testing.T) {
	out := runOK(t, "-log", "fig3", "-q", "UpdateRefer -> GetReimburse", "-records")
	for _, want := range []string{"lsn=14", "lsn=20", "UpdateRefer", "GetReimburse"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestExistsCountInstances(t *testing.T) {
	if out := runOK(t, "-log", "fig3", "-q", "SeeDoctor", "-exists"); strings.TrimSpace(out) != "true" {
		t.Errorf("-exists = %q", out)
	}
	if out := runOK(t, "-log", "fig3", "-q", "SeeDoctor", "-count"); strings.TrimSpace(out) != "4" {
		t.Errorf("-count = %q", out)
	}
	if out := runOK(t, "-log", "fig3", "-q", "SeeDoctor", "-instances"); strings.TrimSpace(out) != "2" {
		t.Errorf("-instances = %q", out)
	}
}

func TestStats(t *testing.T) {
	out := runOK(t, "-log", "fig3", "-stats")
	for _, want := range []string{"records:         20", "instances:       3 (0 complete)", "GetRefer", "max concurrent"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestExplain(t *testing.T) {
	out := runOK(t, "-log", "fig3", "-q", "(SeeDoctor -> PayTreatment) | (SeeDoctor -> UpdateRefer)", "-explain")
	for _, want := range []string{"incident tree", "optimized:", "estimated cost"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestClinicSpecAndGroupBy(t *testing.T) {
	out := runOK(t, "-log", "clinic:50:7", "-q", "GetRefer", "-group-by", "year")
	if !strings.Contains(out, "201") {
		t.Errorf("group-by output:\n%s", out)
	}
	out = runOK(t, "-log", "clinic:50:7", "-q", "GetReimburse", "-group-by", "hospital", "-group-scope", "instance")
	if !strings.Contains(out, "Hospital") {
		t.Errorf("instance-scope group-by output:\n%s", out)
	}
}

func TestStrategiesAgreeViaCLI(t *testing.T) {
	base := runOK(t, "-log", "clinic:30:3", "-q", "SeeDoctor . PayTreatment", "-count")
	naive := runOK(t, "-log", "clinic:30:3", "-q", "SeeDoctor . PayTreatment", "-count", "-naive")
	noopt := runOK(t, "-log", "clinic:30:3", "-q", "SeeDoctor . PayTreatment", "-count", "-no-optimize")
	if base != naive || base != noopt {
		t.Errorf("counts differ: %q / %q / %q", base, naive, noopt)
	}
}

func TestFileLoading(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log.jsonl")
	logData, err := wlq.ClinicLog(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := wlq.SaveLog(path, logData); err != nil {
		t.Fatal(err)
	}
	out := runOK(t, "-log", path, "-q", "GetRefer", "-instances")
	if strings.TrimSpace(out) != "5" {
		t.Errorf("instances from file = %q", out)
	}
}

func TestErrorPaths(t *testing.T) {
	tests := [][]string{
		{},               // missing -log
		{"-log", "fig3"}, // missing -q
		{"-log", "absent.jsonl", "-q", "A"},
		{"-log", "clinic:bad:1", "-q", "A"},
		{"-log", "clinic:1", "-q", "A"},
		{"-log", "clinic:1:x", "-q", "A"},
		{"-log", "fig3", "-q", "A ->"},                   // syntax error
		{"-log", "fig3", "-q", "A ->", "-exists"},        // syntax error via exists
		{"-log", "fig3", "-q", "A ->", "-count"},         // ... count
		{"-log", "fig3", "-q", "A ->", "-instances"},     // ... instances
		{"-log", "fig3", "-q", "A ->", "-explain"},       // ... explain
		{"-log", "fig3", "-q", "A ->", "-group-by", "x"}, // ... group-by
		{"-log", "fig3", "-q", "A", "-group-by", "x", "-group-scope", "bogus"},
		{"-badflag"},
	}
	for _, args := range tests {
		runErr(t, args...)
	}
	// There is no per-operator cap: the budget flags are the bounds.
	if err := runErr(t, "-log", "fig3", "-q", "A", "-limit", "1"); !strings.Contains(err.Error(), "-limit") {
		t.Errorf("-limit: %v, want an unknown-flag error naming it", err)
	}
}

func TestCSVLoading(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.csv")
	csv := "case,activity\no-1,Pay\no-1,Ship\no-2,Ship\no-2,Pay\n"
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runOK(t, "-log", path, "-q", "Ship -> Pay", "-instances")
	if strings.TrimSpace(out) != "1" {
		t.Errorf("ship-before-pay instances = %q, want 1", out)
	}
}

func TestREPL(t *testing.T) {
	script := strings.Join([]string{
		"UpdateRefer -> GetReimburse",
		`\count SeeDoctor`,
		`\exists CompleteRefer`,
		`\tree A -> B`,
		`\explain SeeDoctor`,
		`\stats`,
		`\help`,
		"A -> ",        // syntax error, must not abort the session
		`\count A ->`,  // ditto
		`\exists A ->`, // ditto
		`\tree (`,      // ditto
		`\explain )`,   // ditto
		`\bogus`,       // unknown command
		"",             // blank line skipped
		`\quit`,
	}, "\n") + "\n"
	var buf bytes.Buffer
	if err := run([]string{"-log", "fig3", "-i"}, strings.NewReader(script), &buf); err != nil {
		t.Fatalf("repl: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"wid=2:{5,9}",         // query result
		"4",                   // \count SeeDoctor
		"true",                // \exists CompleteRefer
		"(->) sequential",     // \tree
		"estimated cost",      // \explain
		"records:         20", // \stats
		"commands:",           // \help
		"error:",              // syntax errors reported inline
		"unknown command",     // \bogus
	} {
		if !strings.Contains(out, want) {
			t.Errorf("REPL output missing %q:\n%s", want, out)
		}
	}
}

func TestREPLEOF(t *testing.T) {
	// EOF without \quit ends cleanly.
	var buf bytes.Buffer
	if err := run([]string{"-log", "fig3", "-i"}, strings.NewReader("SeeDoctor\n"), &buf); err != nil {
		t.Fatalf("repl EOF: %v", err)
	}
	if !strings.Contains(buf.String(), "4 incident(s)") {
		t.Errorf("output:\n%s", buf.String())
	}
}

func TestREPLTruncatesLongResults(t *testing.T) {
	var buf bytes.Buffer
	script := "!Nothing -> !Nothing\n\\quit\n"
	if err := run([]string{"-log", "clinic:20:1", "-i"}, strings.NewReader(script), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "more") {
		t.Errorf("expected truncation marker in:\n%.500s", buf.String())
	}
}

func TestBindFlag(t *testing.T) {
	out := runOK(t, "-log", "fig3", "-q", "SeeDoctor -> (UpdateRefer -> GetReimburse)", "-bind")
	for _, want := range []string{"SeeDoctor => is-lsn 4", "UpdateRefer => is-lsn 5", "GetReimburse => is-lsn 9"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestModelSpec(t *testing.T) {
	out := runOK(t, "-log", "model:loans:200:3", "-q", "Reject -> Disburse", "-instances")
	n := strings.TrimSpace(out)
	if n == "0" || n == "" {
		t.Errorf("planted loan anomaly not found: %q", out)
	}
	runErr(t, "-log", "model:nope:10:1", "-q", "A")
	runErr(t, "-log", "model:loans:x:1", "-q", "A")
	runErr(t, "-log", "model:loans:10:y", "-q", "A")
	runErr(t, "-log", "model:loans", "-q", "A")
}

func TestXESLoading(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.xes")
	xes := `<log><trace>
		<event><string key="concept:name" value="Pay"/></event>
		<event><string key="concept:name" value="Ship"/></event>
	</trace></log>`
	if err := os.WriteFile(path, []byte(xes), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runOK(t, "-log", path, "-q", "Pay . Ship", "-count")
	if strings.TrimSpace(out) != "1" {
		t.Errorf("xes query = %q", out)
	}
}

func TestDFGFlag(t *testing.T) {
	out := runOK(t, "-log", "fig3", "-dfg")
	if !strings.Contains(out, "SeeDoctor -> PayTreatment  3") {
		t.Errorf("dfg output:\n%s", out)
	}
	dot := runOK(t, "-log", "fig3", "-dfg", "-dot")
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, `"GetRefer" -> "CheckIn"`) {
		t.Errorf("dot output:\n%s", dot)
	}
}

func TestConformFlag(t *testing.T) {
	out := runOK(t, "-log", "model:orders:40:3", "-conform", "orders")
	if !strings.Contains(out, "40 of 40 instance(s) conform") {
		t.Errorf("conform output:\n%s", out)
	}
	// The clinic log does not follow the orders model.
	out = runOK(t, "-log", "clinic:5:1", "-conform", "orders")
	if !strings.Contains(out, "0 of 5 instance(s) conform") {
		t.Errorf("cross-model conform output:\n%s", out)
	}
	runErr(t, "-log", "fig3", "-conform", "bogus")
}

func TestAuditFlag(t *testing.T) {
	out := runOK(t, "-log", "model:orders:400:7", "-audit", "orders")
	for _, want := range []string{"VIOLATION", "rule(s) checked"} {
		if !strings.Contains(out, want) {
			t.Errorf("audit output missing %q:\n%s", want, out)
		}
	}
	runErr(t, "-log", "fig3", "-audit", "bogus")
}

// TestTraceFlag: -trace renders the span tree and cost table to traceOut
// (stderr in production) while incident output stays on stdout.
func TestTraceFlag(t *testing.T) {
	var trace bytes.Buffer
	old := traceOut
	traceOut = &trace
	defer func() { traceOut = old }()

	out := runOK(t, "-log", "fig3", "-naive", "-trace",
		"-q", "(GetRefer -> GetReimburse) | (SeeDoctor & CheckIn)")
	if !strings.Contains(out, "incident(s)") {
		t.Errorf("stdout lost the incident listing:\n%s", out)
	}
	if strings.Contains(out, "cost_") || strings.Contains(out, "predicted") {
		t.Errorf("trace leaked onto stdout:\n%s", out)
	}
	text := trace.String()
	for _, want := range []string{"parse", "rewrite", "eval", "predicted", "n1·n2", "strategy: naive"} {
		if !strings.Contains(text, want) {
			t.Errorf("trace output missing %q:\n%s", want, text)
		}
	}
}

// TestShardsFlag: the in-process shard tier is gone, and with it -shards and
// -partial; an evaluation is all or nothing on the command line.
func TestShardsFlag(t *testing.T) {
	for _, flag := range [][]string{{"-shards", "4"}, {"-partial"}} {
		err := runErr(t, append([]string{"-log", "fig3", "-q", "SeeDoctor"}, flag...)...)
		if !strings.Contains(err.Error(), "flag provided but not defined: "+flag[0]) {
			t.Errorf("%s: err = %v, want an unknown-flag error", flag[0], err)
		}
	}
}
