package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestSmoke runs every workload end to end on a tiny log against in-process
// servers: every code path but the child processes. The traced replay is the
// same code whatever the workload, so it runs on two of them, the one with
// the appender among them. Each run must be correct and print exactly the
// metrics BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var endToEnd, perLayer []string
	for _, m := range sp.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range sp.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	out := t.TempDir()
	for _, w := range workloads {
		for trace, want := range [][]string{endToEnd, perLayer} {
			if trace == 1 && w.name != "hot-mix" && w.name != "live-mix" {
				continue
			}
			var stdout bytes.Buffer
			code := run([]string{"-smoke", "-workload", w.name, "-seed", "5",
				"-trace", []string{"0", "1"}[trace], "-json", filepath.Join(out, "report.json")}, &stdout)
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %d: last line is not the result: %v\n%s", w.name, trace, err, stdout.String())
			}
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: exit %d, %+v\n%s", w.name, trace, code, res, stdout.String())
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if m.Value == nil || m.Unit == "" {
					t.Errorf("%s trace %d: metric %s lacks a value or unit", w.name, trace, name)
				}
			}
			sort.Strings(got)
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s trace %d: metrics\n got %v\nwant %v", w.name, trace, got, want)
			}
		}
	}
}
