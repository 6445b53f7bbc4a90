// Package enact is the workflow enactment engine substrate: it runs many
// instances of a workflow model concurrently (in simulated time) and records
// their effects as a workflow log satisfying Definition 2 — the role the
// paper's Figure 2 assigns to the "workflow execution engine" that writes
// the log our query language reads.
//
// The engine is deterministic for a given seed: expansion of each instance's
// control flow, the interleaving of instances, and all data effects draw
// from a single seeded source.
package enact

import (
	"fmt"
	"math/rand"
	"time"

	"wlq/internal/wlog"
	"wlq/internal/workflow"
)

// Policy selects how the scheduler interleaves ready instances.
type Policy int

// Scheduling policies.
const (
	// PolicyRoundRobin cycles through active instances one step at a time,
	// producing maximal interleaving (the shape of Figure 3).
	PolicyRoundRobin Policy = iota + 1
	// PolicyRandom picks a uniformly random active instance per step.
	PolicyRandom
	// PolicyBursty picks an instance and runs a geometric burst of its
	// steps before switching, producing clumpy logs (realistic for engines
	// that batch per-instance work).
	PolicyBursty
	// PolicySerial runs each instance to completion before the next starts:
	// no interleaving at all.
	PolicySerial
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyRoundRobin:
		return "round-robin"
	case PolicyRandom:
		return "random"
	case PolicyBursty:
		return "bursty"
	case PolicySerial:
		return "serial"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config parameterizes a run.
type Config struct {
	// Instances is the number of workflow instances to enact; must be ≥ 1.
	Instances int
	// Seed drives all randomness. Two runs with equal Config and model
	// produce identical logs.
	Seed int64
	// Policy selects the interleaving; zero value means PolicyRoundRobin.
	Policy Policy
	// CompleteFraction in [0,1] is the fraction of instances that receive an
	// END record; the rest are left running, as in Figure 3 where instance 3
	// has no END. The zero value means 1.0 (all complete) when
	// LeaveIncomplete is false.
	CompleteFraction float64
	// LeaveIncomplete interprets CompleteFraction of zero as zero (instead
	// of the 1.0 default), so configs can express "no instance completes".
	LeaveIncomplete bool
	// BurstMean is the mean burst length for PolicyBursty; zero means 4.
	BurstMean int
	// Stamp, when set, writes a simulated wall-clock timestamp (RFC 3339,
	// attribute "time" in αout) on every activity record. The clock starts
	// at StampStart (default 2017-01-01T00:00:00Z) and advances by an
	// exponentially distributed gap with mean StampMeanGap (default 15m)
	// before each record.
	Stamp bool
	// StampStart is the simulated clock's origin; zero means
	// 2017-01-01T00:00:00Z.
	StampStart time.Time
	// StampMeanGap is the mean simulated time between records; zero means
	// 15 minutes.
	StampMeanGap time.Duration
}

func (c *Config) normalize() error {
	if c.Instances < 1 {
		return fmt.Errorf("enact: Instances %d < 1", c.Instances)
	}
	if c.Policy == 0 {
		c.Policy = PolicyRoundRobin
	}
	if c.CompleteFraction == 0 && !c.LeaveIncomplete {
		c.CompleteFraction = 1.0
	}
	if c.CompleteFraction < 0 || c.CompleteFraction > 1 {
		return fmt.Errorf("enact: CompleteFraction %g outside [0,1]", c.CompleteFraction)
	}
	if c.BurstMean == 0 {
		c.BurstMean = 4
	}
	if c.BurstMean < 1 {
		return fmt.Errorf("enact: BurstMean %d < 1", c.BurstMean)
	}
	if c.StampStart.IsZero() {
		c.StampStart = time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	if c.StampMeanGap == 0 {
		c.StampMeanGap = 15 * time.Minute
	}
	if c.StampMeanGap < 0 {
		return fmt.Errorf("enact: negative StampMeanGap %v", c.StampMeanGap)
	}
	return nil
}

// instanceRun is one instance's pre-expanded trace and mutable data state.
// The START record is emitted lazily on the instance's first scheduled step,
// so PolicySerial keeps each instance's records contiguous.
type instanceRun struct {
	wid      uint64
	started  bool
	trace    []workflow.Task
	pos      int
	state    wlog.AttrMap
	complete bool // whether this instance gets an END record
}

func (ir *instanceRun) done() bool { return ir.started && ir.pos >= len(ir.trace) }

// Run enacts the model and returns the resulting log.
func Run(m *workflow.Model, cfg Config) (*wlog.Log, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("enact: invalid model: %w", err)
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	var b wlog.Builder
	runs := make([]*instanceRun, cfg.Instances)
	for i := range runs {
		runs[i] = &instanceRun{
			trace:    m.Expand(rng),
			state:    wlog.AttrMap{},
			complete: rng.Float64() < cfg.CompleteFraction,
		}
	}

	active := make([]*instanceRun, len(runs))
	copy(active, runs)

	clock := cfg.StampStart
	step := func(ir *instanceRun) error {
		if !ir.started {
			ir.wid = b.Start()
			ir.started = true
			return nil
		}
		task := ir.trace[ir.pos]
		ir.pos++
		var in, out wlog.AttrMap
		if task.Effect != nil {
			in, out = task.Effect(ir.state, rng)
		}
		if cfg.Stamp {
			clock = clock.Add(time.Duration(rng.ExpFloat64() * float64(cfg.StampMeanGap)))
			out = out.Merge(wlog.Attrs("time", clock.Format(time.RFC3339Nano)))
		}
		if err := b.Emit(ir.wid, task.Name, in, out); err != nil {
			return err
		}
		ir.state = ir.state.Merge(out)
		return nil
	}

	finish := func(ir *instanceRun) error {
		if ir.complete {
			return b.End(ir.wid)
		}
		return nil
	}

	drop := func(i int) {
		active = append(active[:i], active[i+1:]...)
	}

	switch cfg.Policy {
	case PolicySerial:
		for _, ir := range active {
			for !ir.done() {
				if err := step(ir); err != nil {
					return nil, err
				}
			}
			if err := finish(ir); err != nil {
				return nil, err
			}
		}
	case PolicyRoundRobin:
		for len(active) > 0 {
			for i := 0; i < len(active); {
				ir := active[i]
				if ir.done() {
					if err := finish(ir); err != nil {
						return nil, err
					}
					drop(i)
					continue
				}
				if err := step(ir); err != nil {
					return nil, err
				}
				i++
			}
		}
	case PolicyRandom, PolicyBursty:
		for len(active) > 0 {
			i := rng.Intn(len(active))
			ir := active[i]
			burst := 1
			if cfg.Policy == PolicyBursty {
				// Geometric burst with the configured mean.
				p := 1.0 / float64(cfg.BurstMean)
				for burst = 1; rng.Float64() > p; burst++ {
				}
			}
			for n := 0; n < burst && !ir.done(); n++ {
				if err := step(ir); err != nil {
					return nil, err
				}
			}
			if ir.done() {
				if err := finish(ir); err != nil {
					return nil, err
				}
				drop(i)
			}
		}
	default:
		return nil, fmt.Errorf("enact: unknown policy %v", cfg.Policy)
	}

	log, err := b.Build()
	if err != nil {
		// Builder output satisfies Definition 2 by construction.
		return nil, fmt.Errorf("enact: internal error: %w", err)
	}
	return log, nil
}
