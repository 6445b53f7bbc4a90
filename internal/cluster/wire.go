package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"

	"wlq/internal/core/incident"
	"wlq/internal/obs"
	"wlq/internal/resilience"
)

// The coordinator/worker wire protocol. One endpoint does the work:
//
//	POST /v1/worker/query
//
// The request carries the optimized plan TEXT (the coordinator has already
// run the Theorem 2–5 rewriter; workers evaluate the plan verbatim, so every
// worker runs the same plan and the merged answer is digest-identical to a
// single-node evaluation of that plan) plus the part's placement — the
// closed wid interval to evaluate and the receiver's own name. The worker
// evaluates the instances of its own copy of the log inside the interval,
// which keeps requests O(1) in log size and makes placement self-verifying:
// the response echoes how many instances that was, and a coordinator seeing
// a different count knows the worker's copy diverged and treats the answer
// as a worker fault rather than silently merging a mis-covered result.

// WorkerQueryRequest is the POST /v1/worker/query body.
type WorkerQueryRequest struct {
	// Log names the log on the worker (workers load the same -log specs as
	// the coordinator).
	Log string `json:"log"`
	// Plan is the optimized pattern text, evaluated verbatim (no rewrite).
	Plan string `json:"plan"`
	// WIDMin and WIDMax are the closed wid interval of the receiver's part.
	// Both are required and WIDMin <= WIDMax: a worker refuses a request
	// lacking either rather than reading it as "evaluate everything".
	WIDMin *uint64 `json:"wid_min"`
	WIDMax *uint64 `json:"wid_max"`
	// Self is the receiving worker's own name (its base URL), echoed in the
	// reply and stamped on its trace spans.
	Self string `json:"self"`
	// Mode is the shape of the answer wanted (eval.Shape by name): "count"
	// for the number of incidents alone, "instances" for that and the wids
	// having one, "incidents" — or nothing, as a coordinator from before the
	// field sends — for the incidents themselves.
	Mode string `json:"mode,omitempty"`
	// Strategy optionally overrides the join implementation ("merge"/"naive").
	Strategy string `json:"strategy,omitempty"`
	// Budget is this worker's slice of the query budget.
	Budget BudgetDoc `json:"budget,omitempty"`
	// Trace asks the worker to run its evaluation under an obs.Trace and
	// return the span tree plus Lemma 1 cost table in the response. The
	// trace/parent-span ids travel separately, on the Traceparent header.
	Trace bool `json:"trace,omitempty"`
	// MaxTraceSpans caps the span subtree the worker may return (0 = the
	// worker's default cap). Oversized trees are pruned pre-order and the
	// subtree root annotated with truncated_spans.
	MaxTraceSpans int `json:"max_trace_spans,omitempty"`
}

// BudgetDoc is resilience.Budget in wire form (wall time in milliseconds).
type BudgetDoc struct {
	MaxComparisons uint64 `json:"max_comparisons,omitempty"`
	MaxOutputs     uint64 `json:"max_outputs,omitempty"`
	MaxWallMS      int64  `json:"max_wall_ms,omitempty"`
	MaxResultBytes uint64 `json:"max_result_bytes,omitempty"`
}

// ToBudgetDoc converts a budget for the wire.
func ToBudgetDoc(b resilience.Budget) BudgetDoc {
	return BudgetDoc{
		MaxComparisons: b.MaxComparisons,
		MaxOutputs:     b.MaxOutputs,
		MaxWallMS:      b.MaxWallTime.Milliseconds(),
		MaxResultBytes: b.MaxResultBytes,
	}
}

// Budget converts the wire form back.
func (d BudgetDoc) Budget() resilience.Budget {
	return resilience.Budget{
		MaxComparisons: d.MaxComparisons,
		MaxOutputs:     d.MaxOutputs,
		MaxWallTime:    time.Duration(d.MaxWallMS) * time.Millisecond,
		MaxResultBytes: d.MaxResultBytes,
	}
}

// WorkerQueryResponse is the POST /v1/worker/query success body as the
// coordinator decodes it. A worker writes the same object in three pieces —
// WorkerReplyHead, the answer array of the request's mode, WorkerReplyTail —
// because an incidents array is nearly all of its reply and json.Marshal of
// this struct, which re-scans what a Marshaler returns, takes six times as
// long as the codec alone (BenchmarkIncidentCodec: document vs append).
type WorkerQueryResponse struct {
	WorkerReplyHead
	// Incidents, in mode "incidents", are the worker's wid-local answers in
	// canonical order (AppendIncidents); WIDs, in mode "instances", the wids
	// among its part that have one, ascending. Mode "count" has no array.
	Incidents Incidents `json:"incidents"`
	WIDs      []uint64  `json:"wids"`
	WorkerReplyTail
}

// WorkerReplyHead is the part of the reply ahead of the answer array.
type WorkerReplyHead struct {
	// Worker echoes the Self the worker evaluated as.
	Worker string `json:"worker"`
	// WIDsOwned is how many instances of the worker's copy of the log lie
	// inside the requested interval — the coordinator cross-checks this
	// against its own part.
	WIDsOwned int `json:"wids_owned"`
	// Instances is the number of workflow instances actually evaluated.
	Instances int `json:"instances"`
	// Count is the number of incidents in the part, present in the modes
	// "count" and "instances" (in "incidents" it is the array's length). Its
	// absence is how a coordinator tells a worker that does not know the
	// request's mode field and answered with incidents regardless.
	Count *int `json:"count,omitempty"`
}

// WorkerReplyTail is the part of the reply after the incidents.
type WorkerReplyTail struct {
	// ElapsedUS is the worker-side evaluation wall time.
	ElapsedUS int64 `json:"elapsed_us"`
	// TraceID echoes the propagated trace id (from the Traceparent request
	// header) when the worker traced; the coordinator cross-checks it the
	// same way WIDsOwned cross-checks placement.
	TraceID string `json:"trace_id,omitempty"`
	// Spans is the worker's span tree for this evaluation, offsets on the
	// worker's own clock; the coordinator grafts it into the query trace.
	// Present only when the request asked for tracing.
	Spans *obs.Span `json:"spans,omitempty"`
	// CostTable is the worker's per-operator Lemma 1 measured-vs-predicted
	// table, which the coordinator aggregates fleet-wide.
	CostTable []obs.CostRow `json:"cost_table,omitempty"`
}

// The incident codec: the one way incidents cross a wire, whether to a
// client (POST /v1/query) or from a worker to its coordinator. An incident is
//
//	{"wid":2,"seqs":[5,9]}
//
// and a list of them a compact JSON array in canonical order
// (incident.Incident.Compare) — what encoding/json makes of
// []struct{WID uint64 `json:"wid"`; Seqs []uint64 `json:"seqs"`}, byte for
// byte, written and read without reflection or a per-incident copy.

// AppendIncidents appends the wire form of incs to dst.
func AppendIncidents(dst []byte, incs []incident.Incident) []byte {
	seqs := 0
	for _, inc := range incs {
		seqs += inc.Len()
	}
	// About what a clinic-sized answer needs (wids and is-lsns of up to four
	// digits); larger numbers grow dst the usual way.
	dst = slices.Grow(dst, 2+20*len(incs)+5*seqs)
	dst = append(dst, '[')
	for i, inc := range incs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"wid":`...)
		dst = strconv.AppendUint(dst, inc.WID(), 10)
		dst = append(dst, `,"seqs":[`...)
		for j, n := 0, inc.Len(); j < n; j++ {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendUint(dst, inc.Seq(j), 10)
		}
		dst = append(dst, "]}"...)
	}
	return append(dst, ']')
}

// ErrMalformedIncidents is wrapped by every DecodeIncidents error: the bytes
// are not the wire form of a canonical incident list. It is deterministic —
// the same reply decodes the same way — so a coordinator does not retry it.
var ErrMalformedIncidents = errors.New("malformed incidents")

// DecodeIncidents reads the wire form back. It accepts what a JSON decoder
// would — insignificant whitespace, the two keys in either order — and
// nothing that is not an incident list: an unknown or repeated key, a number
// that is not an unsigned 64-bit integer, an incident whose seqs are empty
// or not strictly increasing, and incidents out of canonical order (or
// repeated) are all errors wrapping ErrMalformedIncidents. The result never
// aliases data.
func DecodeIncidents(data []byte) ([]incident.Incident, error) {
	d := incidentDecoder{data: data}
	incs, err := d.list()
	if err != nil {
		return nil, fmt.Errorf("%w at offset %d: %v", ErrMalformedIncidents, d.pos, err)
	}
	return incs, nil
}

// Incidents is an incident list as a field of a JSON document: it marshals
// through AppendIncidents and unmarshals through DecodeIncidents.
type Incidents []incident.Incident

// MarshalJSON implements json.Marshaler.
func (l Incidents) MarshalJSON() ([]byte, error) { return AppendIncidents(nil, l), nil }

// UnmarshalJSON implements json.Unmarshaler; null, as for any slice, leaves
// the list as it is.
func (l *Incidents) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		return nil
	}
	incs, err := DecodeIncidents(data)
	*l = incs
	return err
}

// incidentDecoder is DecodeIncidents' cursor over its input.
type incidentDecoder struct {
	data []byte
	pos  int
	// slab is the arena the decoded seqs are carved from: one allocation per
	// seqSlab numbers instead of one per incident.
	slab []uint64
}

// seqSlab is how many seqs one arena allocation holds.
const seqSlab = 4096

// skipSpace moves the cursor past JSON's insignificant whitespace.
func (d *incidentDecoder) skipSpace() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// has consumes lit, after any whitespace, if that is what comes next.
func (d *incidentDecoder) has(lit string) bool {
	d.skipSpace()
	if !bytes.HasPrefix(d.data[d.pos:], []byte(lit)) {
		return false
	}
	d.pos += len(lit)
	return true
}

// expect is has for a lit that must come next.
func (d *incidentDecoder) expect(lit string) error {
	if !d.has(lit) {
		return fmt.Errorf("want %q", lit)
	}
	return nil
}

// more is called after an element of an array or object closed by end: true
// when a comma announces another, false when end was consumed.
func (d *incidentDecoder) more(end string) (bool, error) {
	switch {
	case d.has(","):
		return true, nil
	case d.has(end):
		return false, nil
	}
	return false, fmt.Errorf("want ',' or %q", end)
}

// uint reads a JSON number that is an unsigned 64-bit integer.
func (d *incidentDecoder) uint() (uint64, error) {
	d.skipSpace()
	start := d.pos
	var v uint64
	for ; d.pos < len(d.data); d.pos++ {
		c := d.data[d.pos] - '0'
		if c > 9 {
			break
		}
		if v > (math.MaxUint64-uint64(c))/10 {
			return 0, errors.New("number overflows uint64")
		}
		v = v*10 + uint64(c)
	}
	switch n := d.pos - start; {
	case n == 0:
		return 0, errors.New("want an unsigned integer")
	case n > 1 && d.data[start] == '0':
		return 0, errors.New("number has a leading zero")
	}
	if d.pos < len(d.data) {
		switch d.data[d.pos] {
		case '.', 'e', 'E':
			return 0, errors.New("want an unsigned integer")
		}
	}
	return v, nil
}

// seqs reads one incident's seqs array into the arena.
func (d *incidentDecoder) seqs() ([]uint64, error) {
	if err := d.expect("["); err != nil {
		return nil, err
	}
	start := len(d.slab)
	if d.has("]") {
		return nil, nil
	}
	for {
		v, err := d.uint()
		if err != nil {
			return nil, err
		}
		if len(d.slab) == cap(d.slab) {
			// A fresh slab, taking along what this incident has so far; the
			// finished incidents keep the old one.
			grown := make([]uint64, len(d.slab)-start, max(seqSlab, 2*(len(d.slab)-start)))
			copy(grown, d.slab[start:])
			d.slab, start = grown, 0
		}
		d.slab = append(d.slab, v)
		if more, err := d.more("]"); err != nil {
			return nil, err
		} else if !more {
			return d.slab[start:len(d.slab):len(d.slab)], nil
		}
	}
}

// incident reads one {"wid":…,"seqs":[…]} object.
func (d *incidentDecoder) incident() (incident.Incident, error) {
	if err := d.expect("{"); err != nil {
		return incident.Incident{}, err
	}
	var (
		wid              uint64
		seqs             []uint64
		haveWID, haveSeq bool
	)
	for more := true; more; {
		var err error
		switch {
		case !haveWID && d.has(`"wid"`):
			haveWID = true
			if err = d.expect(":"); err == nil {
				wid, err = d.uint()
			}
		case !haveSeq && d.has(`"seqs"`):
			haveSeq = true
			if err = d.expect(":"); err == nil {
				seqs, err = d.seqs()
			}
		default:
			err = errors.New(`want the key "wid" or "seqs", once each`)
		}
		if err == nil {
			more, err = d.more("}")
		}
		if err != nil {
			return incident.Incident{}, err
		}
	}
	if !haveWID || !haveSeq {
		return incident.Incident{}, errors.New(`incident lacks "wid" or "seqs"`)
	}
	return incident.FromSorted(wid, seqs)
}

// list reads the whole array and requires nothing but whitespace after it.
func (d *incidentDecoder) list() ([]incident.Incident, error) {
	if err := d.expect("["); err != nil {
		return nil, err
	}
	// Every incident opens one brace, so the count sizes the result exactly;
	// the cap keeps bytes that are mostly braces from reserving 32 times
	// their own size.
	incs := make([]incident.Incident, 0, min(bytes.Count(d.data, []byte("{")), len(d.data)/len(`{"wid":0,"seqs":[0]}`)))
	if !d.has("]") {
		for more := true; more; {
			start := d.pos
			inc, err := d.incident()
			if err == nil && len(incs) > 0 && incs[len(incs)-1].Compare(inc) >= 0 {
				d.pos, err = start, fmt.Errorf("%v does not follow %v in canonical order", inc, incs[len(incs)-1])
			}
			if err != nil {
				return nil, err
			}
			incs = append(incs, inc)
			if more, err = d.more("]"); err != nil {
				return nil, err
			}
		}
	}
	if d.skipSpace(); d.pos < len(d.data) {
		return nil, errors.New("data after the closing bracket")
	}
	return incs, nil
}

// WorkerErrorDoc is the worker's error envelope (any non-200 status).
type WorkerErrorDoc struct {
	Error string `json:"error"`
	// BudgetDimension, BudgetLimit and BudgetMeasured are set on a 422
	// budget abort: the worker's resilience.BudgetError, which the
	// coordinator rebuilds and fails the whole query with.
	BudgetDimension string `json:"budget_dimension,omitempty"`
	BudgetLimit     uint64 `json:"budget_limit,omitempty"`
	BudgetMeasured  uint64 `json:"budget_measured,omitempty"`
	// IncidentID correlates a worker-side recovered panic (500).
	IncidentID string `json:"incident_id,omitempty"`
}
