package enact

import (
	"math/rand"
	"testing"

	"wlq/internal/wlog"
	"wlq/internal/workflow"
)

func testModel() *workflow.Model {
	return &workflow.Model{
		Name: "test",
		Root: workflow.Sequence{
			workflow.Task{Name: "A"},
			workflow.XOR{Branches: []workflow.Branch{
				{Weight: 1, Step: workflow.Task{Name: "B"}},
				{Weight: 1, Step: workflow.Task{Name: "C"}},
			}},
			workflow.Loop{
				Body:         workflow.Task{Name: "D"},
				ContinueProb: 0.5,
				MaxIter:      3,
			},
		},
	}
}

func TestRunProducesValidLogs(t *testing.T) {
	for _, policy := range []Policy{PolicyRoundRobin, PolicyRandom, PolicyBursty, PolicySerial} {
		t.Run(policy.String(), func(t *testing.T) {
			l, err := Run(testModel(), Config{Instances: 8, Seed: 1, Policy: policy})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if err := l.Validate(); err != nil {
				t.Fatalf("log invalid: %v", err)
			}
			if got := len(l.WIDs()); got != 8 {
				t.Errorf("instances = %d, want 8", got)
			}
			for _, wid := range l.WIDs() {
				if !l.InstanceComplete(wid) {
					t.Errorf("instance %d incomplete (CompleteFraction defaults to 1)", wid)
				}
				// Every instance trace must start with A after START.
				inst := l.Instance(wid)
				if inst[1].Activity != "A" {
					t.Errorf("instance %d begins with %q", wid, inst[1].Activity)
				}
			}
		})
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := Config{Instances: 5, Seed: 99, Policy: PolicyRandom}
	a, err := Run(testModel(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testModel(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("same seed produced different logs")
	}
	c, err := Run(testModel(), Config{Instances: 5, Seed: 100, Policy: PolicyRandom})
	if err != nil {
		t.Fatal(err)
	}
	if a.Equal(c) {
		t.Error("different seeds produced identical logs (suspicious)")
	}
}

func TestRunCompleteFraction(t *testing.T) {
	l, err := Run(testModel(), Config{Instances: 40, Seed: 3, CompleteFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	complete := 0
	for _, wid := range l.WIDs() {
		if l.InstanceComplete(wid) {
			complete++
		}
	}
	if complete == 0 || complete == 40 {
		t.Errorf("complete = %d of 40, want a mix at fraction 0.5", complete)
	}
}

func TestRunLeaveIncomplete(t *testing.T) {
	l, err := Run(testModel(), Config{Instances: 5, Seed: 3, LeaveIncomplete: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, wid := range l.WIDs() {
		if l.InstanceComplete(wid) {
			t.Errorf("instance %d completed despite LeaveIncomplete", wid)
		}
	}
}

func TestRunConfigErrors(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{"zero instances", Config{}},
		{"negative fraction", Config{Instances: 1, CompleteFraction: -0.1}},
		{"fraction above one", Config{Instances: 1, CompleteFraction: 1.5}},
		{"negative burst", Config{Instances: 1, BurstMean: -2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Run(testModel(), tt.cfg); err == nil {
				t.Error("Run: want error")
			}
		})
	}
}

func TestRunInvalidModel(t *testing.T) {
	bad := &workflow.Model{Name: "bad", Root: workflow.Sequence{}}
	if _, err := Run(bad, Config{Instances: 1}); err == nil {
		t.Error("Run with invalid model: want error")
	}
}

// TestRunAppliesEffects exercises per-instance state threading: Init writes
// x=1, Bump reads the current x and writes x+1, Check reads the bumped value.
func TestRunAppliesEffects(t *testing.T) {
	model := &workflow.Model{
		Name: "fx",
		Root: workflow.Sequence{
			workflow.Task{Name: "Init", Effect: func(state wlog.AttrMap, _ *rand.Rand) (wlog.AttrMap, wlog.AttrMap) {
				return nil, wlog.Attrs("x", 1)
			}},
			workflow.Task{Name: "Bump", Effect: func(state wlog.AttrMap, _ *rand.Rand) (wlog.AttrMap, wlog.AttrMap) {
				x, _ := state.Get("x").IntVal()
				return wlog.Attrs("x", x), wlog.Attrs("x", x+1)
			}},
			workflow.Task{Name: "Check", Effect: func(state wlog.AttrMap, _ *rand.Rand) (wlog.AttrMap, wlog.AttrMap) {
				return wlog.Attrs("x", state.Get("x")), nil
			}},
		},
	}
	l, err := Run(model, Config{Instances: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, wid := range l.WIDs() {
		inst := l.Instance(wid)
		var bump, check wlog.Record
		for _, r := range inst {
			switch r.Activity {
			case "Bump":
				bump = r
			case "Check":
				check = r
			}
		}
		if !bump.In.Get("x").Equal(wlog.Int(1)) || !bump.Out.Get("x").Equal(wlog.Int(2)) {
			t.Errorf("wid %d: Bump saw in=%v out=%v", wid, bump.In, bump.Out)
		}
		if !check.In.Get("x").Equal(wlog.Int(2)) {
			t.Errorf("wid %d: Check read x=%v, want 2", wid, check.In.Get("x"))
		}
	}
}

func TestRunSerialDoesNotInterleave(t *testing.T) {
	l, err := Run(testModel(), Config{Instances: 4, Seed: 8, Policy: PolicySerial})
	if err != nil {
		t.Fatal(err)
	}
	// Under serial scheduling, each instance's records are contiguous.
	lastWID := uint64(0)
	seen := map[uint64]bool{}
	for _, r := range l.Records() {
		if r.WID != lastWID {
			if seen[r.WID] {
				t.Fatalf("instance %d records not contiguous", r.WID)
			}
			seen[r.WID] = true
			lastWID = r.WID
		}
	}
}

func TestRoundRobinInterleaves(t *testing.T) {
	l, err := Run(testModel(), Config{Instances: 3, Seed: 8, Policy: PolicyRoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	// Record 1,2,3 must be the three START records of wids 1,2,3.
	for i := 0; i < 3; i++ {
		r := l.Record(i)
		if !r.IsStart() || r.WID != uint64(i+1) {
			t.Errorf("record %d = %v, want START of wid %d", i, r, i+1)
		}
	}
}
