package logio

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"

	"wlq/internal/wlog"
)

// XES import. XES (IEEE 1849) is the standard interchange format for
// process-mining event logs: a <log> of <trace> elements, each holding
// <event> elements, with typed attribute children (<string>, <int>,
// <float>, <boolean>, <date>) keyed by convention — "concept:name" names
// the trace (case id) and the event (activity name).
//
// ImportXES maps each trace to a workflow instance and each event to a log
// record: the event's concept:name becomes the activity, every other event
// attribute lands in αout (dates as strings, which sort correctly for ISO
// timestamps). Events keep document order, the order XES semantics
// prescribe within a trace; traces are interleaved round-robin so the
// resulting log has the concurrent-instances shape of the paper's Figure 3.
// A START record is synthesized per trace, and an END record when the
// CompleteCases option is set.

// XESOptions configures ImportXES.
type XESOptions struct {
	// CompleteCases appends an END record to every trace.
	CompleteCases bool
	// Serial appends each trace's records as one contiguous block instead
	// of interleaving traces round-robin.
	Serial bool
}

// xesAttr is one typed attribute element.
type xesAttr struct {
	XMLName xml.Name
	Key     string `xml:"key,attr"`
	Value   string `xml:"value,attr"`
}

type xesEvent struct {
	Attrs []xesAttr `xml:",any"`
}

type xesTrace struct {
	Attrs  []xesAttr  `xml:"string"`
	Events []xesEvent `xml:"event"`
}

type xesLog struct {
	Traces []xesTrace `xml:"trace"`
}

// XES import errors.
var (
	// ErrXESNoTraces is returned for a log without traces or events.
	ErrXESNoTraces = errors.New("logio: XES log contains no traces with events")
	// ErrXESEventName is returned when an event lacks concept:name.
	ErrXESEventName = errors.New("logio: XES event without concept:name")
)

// conceptName is the XES attribute key naming traces and events.
const conceptName = "concept:name"

// ImportXES reads an XES document and assembles a valid workflow log.
func ImportXES(r io.Reader, opts XESOptions) (*wlog.Log, error) {
	var doc xesLog
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("logio: parsing XES: %w", err)
	}

	type caseTrace struct {
		events []wlog.Record // Activity + Out filled; ids assigned later
	}
	var cases []caseTrace
	for ti, trace := range doc.Traces {
		var ct caseTrace
		for ei, ev := range trace.Events {
			activity := ""
			attrs := wlog.AttrMap{}
			for _, a := range ev.Attrs {
				if a.Key == conceptName {
					// Trim surrounding whitespace so the activity name is
					// identical no matter which importer produced it (CSV
					// already trims) — the store and the oracle's index key
					// by exact string and must never disagree on identity.
					activity = strings.TrimSpace(a.Value)
					continue
				}
				if a.Key == "" {
					continue
				}
				attrs[a.Key] = xesValue(a)
			}
			if activity == "" {
				return nil, fmt.Errorf("%w: trace %d event %d", ErrXESEventName, ti+1, ei+1)
			}
			if activity == wlog.ActivityStart || activity == wlog.ActivityEnd {
				return nil, fmt.Errorf("logio: trace %d event %d: reserved activity %q",
					ti+1, ei+1, activity)
			}
			if len(attrs) == 0 {
				attrs = nil
			}
			ct.events = append(ct.events, wlog.Record{Activity: activity, Out: attrs})
		}
		if len(ct.events) > 0 {
			cases = append(cases, ct)
		}
	}
	if len(cases) == 0 {
		return nil, ErrXESNoTraces
	}

	var b wlog.Builder
	wids := make([]uint64, len(cases))
	emit := func(ci, ei int) error {
		ev := cases[ci].events[ei]
		if err := b.Emit(wids[ci], ev.Activity, nil, ev.Out); err != nil {
			return fmt.Errorf("logio: trace %d event %d: %w", ci+1, ei+1, err)
		}
		return nil
	}
	end := func(ci int) error {
		if err := b.End(wids[ci]); err != nil {
			return fmt.Errorf("logio: completing trace %d: %w", ci+1, err)
		}
		return nil
	}
	if opts.Serial {
		for ci := range cases {
			wids[ci] = b.Start()
			for ei := range cases[ci].events {
				if err := emit(ci, ei); err != nil {
					return nil, err
				}
			}
			if opts.CompleteCases {
				if err := end(ci); err != nil {
					return nil, err
				}
			}
		}
		return b.Build()
	}
	for ci := range cases {
		wids[ci] = b.Start()
	}
	for step := 0; ; step++ {
		emitted := false
		for ci := range cases {
			if step < len(cases[ci].events) {
				if err := emit(ci, step); err != nil {
					return nil, err
				}
				emitted = true
			}
		}
		if !emitted {
			break
		}
	}
	if opts.CompleteCases {
		for ci := range wids {
			if err := end(ci); err != nil {
				return nil, err
			}
		}
	}
	return b.Build()
}

// xesValue converts a typed XES attribute to a wlog.Value based on its
// element name; unknown types (including id, list, container) fall back to
// the raw string.
func xesValue(a xesAttr) wlog.Value {
	switch a.XMLName.Local {
	case "int", "float", "boolean":
		if v, err := wlog.ParseValue(a.Value); err == nil {
			return v
		}
		return wlog.String(a.Value)
	default: // string, date, id, ...
		return wlog.String(a.Value)
	}
}
