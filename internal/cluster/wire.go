package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"time"

	"wlq/internal/core/eval"
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

// WorkerQueryResponse is the POST /v1/worker/query success body. A worker
// writes it in three pieces — WorkerReplyHead, the answer array of the
// request's mode, WorkerReplyTail — because an incidents array is nearly all
// of its reply and json.Marshal of this struct, which re-scans what a
// Marshaler returns, takes six times as long as the codec alone
// (BenchmarkIncidentCodec: document vs append). The coordinator reads it the
// same way round (readReply): encoding/json decodes head and tail, and the
// array is checked where it lies.
type WorkerQueryResponse struct {
	WorkerReplyHead
	// Incidents, in mode "incidents", is the worker's wid-local answer in wire
	// form: its incidents in canonical order, exactly as AppendIncidents
	// writes them. WIDs, in mode "instances", are the wids among its part that
	// have one, ascending. Mode "count" has no array.
	Incidents json.RawMessage `json:"incidents"`
	WIDs      []uint64        `json:"wids"`
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
//
// There is one spelling. The reader accepts exactly what AppendIncidents
// writes — no whitespace, "wid" before "seqs", numbers in shortest decimal
// form — so that a list that reads is the canonical bytes of its incidents,
// and a coordinator that splices its workers' lists into one answer writes
// what a single node would.

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

// ErrMalformedIncidents is wrapped by every error of the answer readers: the
// bytes are not the one wire form of a canonical incident list (or, in a
// worker reply, of an ascending wid list). It is deterministic — the same
// reply reads the same way — so a coordinator does not retry it.
var ErrMalformedIncidents = errors.New("malformed incidents")

// DecodeIncidents reads the wire form back, the seqs carved from one
// incident.Slab. Anything but the bytes AppendIncidents writes for a
// canonical list — another spelling of the same JSON, an incident whose seqs
// are empty or not strictly increasing, incidents out of canonical order or
// repeated, anything after the list — is an error wrapping
// ErrMalformedIncidents. The result never aliases data.
func DecodeIncidents(data []byte) ([]incident.Incident, error) {
	// Every incident opens one brace, so the count sizes the result exactly;
	// the cap keeps bytes that are mostly braces from reserving 32 times
	// their own size.
	incs := make([]incident.Incident, 0, min(bytes.Count(data, []byte("{")), len(data)/len(`{"wid":0,"seqs":[0]}`)))
	var slab incident.Slab
	if _, err := scanIncidentList(data, func(wid uint64, seqs []uint64) {
		incs = append(incs, slab.Copy(incident.Adopt(wid, seqs)))
	}); err != nil {
		return nil, err
	}
	return incs, nil
}

// IncidentWIDs returns the distinct wids of a wire-form list, ascending. The
// list must have been read once already, as every answer array a coordinator
// holds was; a list that does not read yields the wids before the fault.
func IncidentWIDs(data []byte) []uint64 {
	var wids []uint64
	scanIncidentList(data, func(wid uint64, _ []uint64) {
		if len(wids) == 0 || wids[len(wids)-1] != wid {
			wids = append(wids, wid)
		}
	})
	return wids
}

// CutIncidents returns the first n incidents of a wire-form list of at least
// n as a list of their own, in a new slice. An incident is an object with no
// object inside it, so the n-th closing brace ends the n-th incident.
func CutIncidents(data []byte, n int) []byte {
	end := 1
	for ; n > 0; n-- {
		end += bytes.IndexByte(data[end:], '}') + 1
	}
	return append(data[:end:end], ']')
}

// joinLists concatenates wire-form lists that follow one another in
// canonical order into one list, copying each once into a new slice.
func joinLists(lists [][]byte) []byte {
	size := 2
	for _, l := range lists {
		size += len(l) - 1
	}
	out := append(make([]byte, 0, size), '[')
	for _, l := range lists {
		if len(l) <= len("[]") {
			continue
		}
		if len(out) > 1 {
			out = append(out, ',')
		}
		out = append(out, l[1:len(l)-1]...)
	}
	return append(out, ']')
}

// listSummary is what reading an answer array learns besides its elements:
// how many there are, and the wids of the first and the last (zero when
// there are none).
type listSummary struct {
	n           int
	first, last uint64
}

// scanIncidentList reads data as one incident list and nothing after it,
// calling emit, when non-nil, with each incident in order.
func scanIncidentList(data []byte, emit func(wid uint64, seqs []uint64)) (listSummary, error) {
	s := scanner{data: data}
	sum, err := s.incidents(emit)
	if err == nil && s.pos < len(data) {
		err = errors.New("data after the closing bracket")
	}
	if err != nil {
		return listSummary{}, s.malformed(err)
	}
	return sum, nil
}

// scanner is a cursor over bytes in the one wire grammar.
type scanner struct {
	data []byte
	pos  int
}

// malformed places err at the cursor, under ErrMalformedIncidents.
func (s *scanner) malformed(err error) error {
	return fmt.Errorf("%w at offset %d: %v", ErrMalformedIncidents, s.pos, err)
}

// lit consumes lit if that is what comes next.
func (s *scanner) lit(lit string) bool {
	if len(s.data)-s.pos < len(lit) || string(s.data[s.pos:s.pos+len(lit)]) != lit {
		return false
	}
	s.pos += len(lit)
	return true
}

// want is lit for what must come next.
func (s *scanner) want(lit string) error {
	if !s.lit(lit) {
		return fmt.Errorf("want %q", lit)
	}
	return nil
}

// uint reads an unsigned 64-bit integer in shortest decimal form.
func (s *scanner) uint() (uint64, error) {
	data, start := s.data, s.pos
	i, v := start, uint64(0)
	for ; i < len(data); i++ {
		c := data[i] - '0'
		if c > 9 {
			break
		}
		// Nineteen digits cannot overflow; a twentieth may.
		if i-start >= 19 && v > (math.MaxUint64-uint64(c))/10 {
			s.pos = i
			return 0, errors.New("number overflows uint64")
		}
		v = v*10 + uint64(c)
	}
	s.pos = i
	switch n := i - start; {
	case n == 0:
		return 0, errors.New("want an unsigned integer")
	case n > 1 && data[start] == '0':
		return 0, errors.New("number has a leading zero")
	}
	return v, nil
}

// incidents reads one incident list, checking Definition 4 (seqs non-empty
// and strictly increasing) and the canonical order as it goes, and calls
// emit, when non-nil, with each incident; seqs is valid only during the call.
// The seqs of the incident before and of the one being read live in two
// buffers that trade places, so a list of any length costs two small
// allocations.
func (s *scanner) incidents(emit func(wid uint64, seqs []uint64)) (sum listSummary, err error) {
	if err := s.want("["); err != nil {
		return sum, err
	}
	if s.lit("]") {
		return sum, nil
	}
	// Room for incidents of up to eight records each, in one allocation.
	seqs := make([]uint64, 16)
	prev, cur := seqs[:0:8], seqs[8:8]
	for {
		if err := s.want(`{"wid":`); err != nil {
			return sum, err
		}
		wid, err := s.uint()
		if err == nil {
			err = s.want(`,"seqs":[`)
		}
		if err == nil {
			cur, err = s.seqs(cur[:0])
		}
		if err != nil {
			return sum, err
		}
		// Canonical order is wid order first; only a wid's second incident
		// needs the whole comparison.
		if sum.n > 0 && wid <= sum.last {
			if p, o := incident.Adopt(sum.last, prev), incident.Adopt(wid, cur); p.Compare(o) >= 0 {
				return sum, fmt.Errorf("%v does not follow %v in canonical order", o, p)
			}
		}
		if emit != nil {
			emit(wid, cur)
		}
		if sum.n == 0 {
			sum.first = wid
		}
		sum.n++
		sum.last = wid
		prev, cur = cur, prev
		if s.lit(",") {
			continue
		}
		if s.lit("]") {
			return sum, nil
		}
		return sum, errors.New(`want ',' or "]"`)
	}
}

// seqs reads an incident's is-lsns, from after its '[' through the closing
// "]}", into dst.
func (s *scanner) seqs(dst []uint64) ([]uint64, error) {
	if len(s.data) > s.pos && s.data[s.pos] == ']' {
		return nil, errors.New("empty incident")
	}
	for {
		v, err := s.uint()
		if err != nil {
			return nil, err
		}
		if n := len(dst); n > 0 && v <= dst[n-1] {
			return nil, fmt.Errorf("is-lsn %d after %d: not strictly increasing", v, dst[n-1])
		}
		dst = append(dst, v)
		if s.lit(",") {
			continue
		}
		if s.lit("]}") {
			return dst, nil
		}
		return nil, errors.New(`want ',' or "]}"`)
	}
}

// wids reads a wid list, strictly ascending, into a new slice.
func (s *scanner) wids() ([]uint64, error) {
	if err := s.want("["); err != nil {
		return nil, err
	}
	if s.lit("]") {
		return nil, nil
	}
	// The first ']' ends a list of numbers: size the result by its commas.
	var dst []uint64
	if end := bytes.IndexByte(s.data[s.pos:], ']'); end > 0 {
		dst = make([]uint64, 0, bytes.Count(s.data[s.pos:s.pos+end], []byte(","))+1)
	}
	for {
		v, err := s.uint()
		if err != nil {
			return nil, err
		}
		if n := len(dst); n > 0 && v <= dst[n-1] {
			return nil, fmt.Errorf("wids %d, %d not ascending", dst[n-1], v)
		}
		dst = append(dst, v)
		if s.lit(",") {
			continue
		}
		if s.lit("]") {
			return dst, nil
		}
		return nil, errors.New(`want ',' or "]"`)
	}
}

// maxPresized bounds the buffer readReply reserves from a Content-Length
// header, so that a header that lies cannot reserve memory its body never
// sends; a longer body is read as it comes.
const maxPresized = 64 << 20

// readReply reads a worker's success body to a request of the given shape:
// whole, into one buffer of the length its header announced (size <= 0: none,
// or an empty body), then in place (parseReply). A body cut short is the
// transport's failure and worth a retry; a whole body that does not read is
// not — asking again gets the same bytes.
func readReply(body io.Reader, size int64, shape eval.Shape) (*WorkerQueryResponse, listSummary, error) {
	var (
		buf []byte
		err error
	)
	if size > 0 && size <= maxPresized {
		buf = make([]byte, size)
		_, err = io.ReadFull(body, buf)
	} else {
		buf, err = io.ReadAll(body)
	}
	if err != nil {
		return nil, listSummary{}, fmt.Errorf("read worker response: %w", err)
	}
	resp, sum, err := parseReply(buf, shape)
	if err != nil {
		return nil, listSummary{}, nonRetryable(err)
	}
	return resp, sum, nil
}

// Answer array members as they open in a reply.
var (
	incidentsKey = []byte(`"incidents":`)
	widsKey      = []byte(`"wids":`)
)

// parseReply reads a worker's success body in place. The head (worker,
// wids_owned, instances, count) has no nested value, so the first
// `"incidents":` — or `"wids":`, by the shape — opens the answer array. The
// scanner reads the array where it lies, and encoding/json decodes only the
// members around it (decodeAround). The returned Incidents aliases body, and
// the byte on each side of the array's member is overwritten.
//
// A reply reads if it is one JSON object whose answer array, when it has one,
// is in the one wire spelling and is the object's only member of that name;
// anything else is an error.
func parseReply(body []byte, shape eval.Shape) (*WorkerQueryResponse, listSummary, error) {
	var (
		key []byte
		env replyEnvelope
		sum listSummary
	)
	switch shape {
	case eval.ShapeIncidents:
		key = incidentsKey
	case eval.ShapeInstances:
		key = widsKey
	}
	at := -1
	if key != nil {
		at = bytes.Index(body, key)
	}
	if at < 0 {
		// No answer array: none in mode "count", and an empty one left out.
		if err := json.Unmarshal(body, &env); err != nil {
			return nil, sum, fmt.Errorf("decode worker response: %w", err)
		}
		if env.has(shape) {
			return nil, sum, fmt.Errorf("%w: the answer array's key is not spelled %s", ErrMalformedIncidents, key)
		}
		return env.response(), sum, nil
	}
	s := scanner{data: body, pos: at + len(key)}
	var (
		incidents json.RawMessage
		wids      []uint64
		err       error
	)
	if shape == eval.ShapeIncidents {
		if sum, err = s.incidents(nil); err == nil {
			incidents = body[at+len(key) : s.pos : s.pos]
		}
	} else if wids, err = s.wids(); err == nil && len(wids) > 0 {
		sum = listSummary{n: len(wids), first: wids[0], last: wids[len(wids)-1]}
	}
	if err != nil {
		return nil, listSummary{}, s.malformed(err)
	}
	if err := decodeAround(body[:at], body[s.pos:], &env); err != nil {
		return nil, listSummary{}, fmt.Errorf("decode worker response: %w", err)
	}
	if env.has(shape) {
		return nil, listSummary{}, fmt.Errorf("%w: a second %s member", ErrMalformedIncidents, key)
	}
	resp := env.response()
	resp.Incidents, resp.WIDs = incidents, wids
	return resp, sum, nil
}

// replyEnvelope is what encoding/json reads of a reply. The answer arrays'
// members only record that they were there: beside the array the scanner
// read, one would be a second answer, and the other mode's is not read.
type replyEnvelope struct {
	WorkerReplyHead
	Incidents present     `json:"incidents"`
	WIDs      presentWIDs `json:"wids"`
	WorkerReplyTail
}

// present records that an object member was there, whatever its value.
type present bool

// UnmarshalJSON implements json.Unmarshaler.
func (p *present) UnmarshalJSON([]byte) error {
	*p = true
	return nil
}

// presentWIDs is present for a member that must decode as a wid list, as it
// would into a WorkerQueryResponse.
type presentWIDs bool

// UnmarshalJSON implements json.Unmarshaler.
func (p *presentWIDs) UnmarshalJSON(b []byte) error {
	*p = true
	var wids []uint64
	return json.Unmarshal(b, &wids)
}

// has reports whether the envelope had a member of the shape's answer array.
func (e *replyEnvelope) has(shape eval.Shape) bool {
	switch shape {
	case eval.ShapeIncidents:
		return bool(e.Incidents)
	case eval.ShapeInstances:
		return bool(e.WIDs)
	}
	return false
}

// response is the envelope's head and tail as a reply with no answer array.
func (e *replyEnvelope) response() *WorkerQueryResponse {
	return &WorkerQueryResponse{WorkerReplyHead: e.WorkerReplyHead, WorkerReplyTail: e.WorkerReplyTail}
}

// jsonSpace is JSON's insignificant whitespace.
const jsonSpace = " \t\r\n"

// errPlace is decodeAround's error for bytes around the array that do not
// make it a member of one object.
var errPlace = errors.New("the answer array is not a member of the reply object")

// decodeAround decodes into v the members of a JSON object before and after
// one of its members: head runs up to that member's key, tail from just after
// its value. Each side, closed into an object of its own by overwriting the
// comma that joined it to the member, goes through encoding/json — head
// first, so that of a repeated key the last is kept, as encoding/json keeps
// it of the whole object.
func decodeAround(head, tail []byte, v any) error {
	head = bytes.TrimRight(head, jsonSpace)
	tail = bytes.TrimLeft(tail, jsonSpace)
	if len(head) == 0 || len(tail) == 0 {
		return errPlace
	}
	switch last := len(head) - 1; {
	case head[last] == ',' && !bytes.HasSuffix(bytes.TrimRight(head[:last], jsonSpace), []byte("{")):
		head[last] = '}'
		if err := json.Unmarshal(head, v); err != nil {
			return err
		}
	case head[last] == '{' && len(bytes.TrimLeft(head, jsonSpace)) == 1:
		// The array's member comes first.
	default:
		return errPlace
	}
	switch {
	case tail[0] == ',' && !bytes.HasPrefix(bytes.TrimLeft(tail[1:], jsonSpace), []byte("}")):
		tail[0] = '{'
		return json.Unmarshal(tail, v)
	case tail[0] == '}' && len(bytes.TrimRight(tail, jsonSpace)) == 1:
		// The array's member comes last.
		return nil
	}
	return errPlace
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
