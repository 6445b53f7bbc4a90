package obs

import (
	"encoding/json"
	"strconv"
	"sync/atomic"

	"wlq/internal/core/pattern"
)

// The field types of a metric registry. A registry is a struct whose fields
// are these types, each tagged with its JSON key (json), its Prometheus
// family (prom) and the family's help text (help): the struct is at once
// where every number is kept and the document both renderers read — the
// JSON encoder through each type's MarshalJSON, a Prometheus walker through
// its Samples — so a metric is declared once and never copied into a
// document. A registry holds its metrics by value and must not be copied;
// go vet's copylocks check enforces that through the atomics. UnmarshalJSON
// reads a served document back into a registry of the same type.

// Sample is one Prometheus sample of a metric: its label list without
// braces (`op="choice"`, empty for an unlabeled sample) and its value.
type Sample struct {
	Labels, Value string
}

// Counter is a count that only goes up.
type Counter struct{ atomic.Uint64 }

func (c *Counter) MarshalJSON() ([]byte, error) { return strconv.AppendUint(nil, c.Load(), 10), nil }

func (c *Counter) UnmarshalJSON(b []byte) error {
	n, err := strconv.ParseUint(string(b), 10, 64)
	c.Store(n)
	return err
}

// Samples is the counter's one unlabeled sample.
func (c *Counter) Samples() []Sample { return []Sample{{Value: strconv.FormatUint(c.Load(), 10)}} }

// Gauge is a level that goes up and down.
type Gauge struct{ atomic.Int64 }

func (g *Gauge) MarshalJSON() ([]byte, error) { return strconv.AppendInt(nil, g.Load(), 10), nil }

func (g *Gauge) UnmarshalJSON(b []byte) error {
	n, err := strconv.ParseInt(string(b), 10, 64)
	g.Store(n)
	return err
}

// Samples is the gauge's one unlabeled sample.
func (g *Gauge) Samples() []Sample { return []Sample{{Value: strconv.FormatInt(g.Load(), 10)}} }

// OpCounter is a counter per operator of Definition 3, indexed by
// pattern.Op (slot 0 stays unused): a JSON object keyed by operator name,
// and in Prometheus one sample per operator labeled op="<name>", in
// operator order.
type OpCounter [pattern.OpParallel + 1]Counter

// Add adds n to the counter of the operator named name ("consecutive",
// "sequential", "choice", "parallel"); any other name, such as a cost
// table's "atom", counts nowhere.
func (c *OpCounter) Add(name string, n uint64) {
	if k := c.named(name); k != nil {
		k.Add(n)
	}
}

// named is the counter of the operator named name, or nil.
func (c *OpCounter) named(name string) *Counter {
	for op := pattern.OpConsecutive; op <= pattern.OpParallel; op++ {
		if op.Name() == name {
			return &c[op]
		}
	}
	return nil
}

func (c *OpCounter) MarshalJSON() ([]byte, error) {
	b := []byte{'{'}
	for op := pattern.OpConsecutive; op <= pattern.OpParallel; op++ {
		if op > pattern.OpConsecutive {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, op.Name())
		b = strconv.AppendUint(append(b, ':'), c[op].Load(), 10)
	}
	return append(b, '}'), nil
}

func (c *OpCounter) UnmarshalJSON(b []byte) error {
	var byName map[string]uint64
	err := json.Unmarshal(b, &byName)
	for name, n := range byName {
		if k := c.named(name); k != nil {
			k.Store(n)
		}
	}
	return err
}

// Samples is one sample per operator.
func (c *OpCounter) Samples() []Sample {
	out := make([]Sample, 0, pattern.OpParallel)
	for op := pattern.OpConsecutive; op <= pattern.OpParallel; op++ {
		out = append(out, Sample{Labels: `op="` + op.Name() + `"`, Value: strconv.FormatUint(c[op].Load(), 10)})
	}
	return out
}
