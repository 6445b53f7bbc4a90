package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"wlq/internal/core/eval"
	"wlq/internal/core/incident"
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
	// reply.
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

// WorkerQueryResponse is a worker's reply as the coordinator reads it: the
// answer array of the request's mode, then the envelope. Incidents, in mode
// "incidents", is the worker's wid-local answer in wire form: its incidents
// in canonical order, exactly as incident.AppendWire writes them. WIDs, in mode
// "instances", are the wids among its part that have one, ascending. Mode
// "count" has no array. The reply's one layout is WriteReply's.
type WorkerQueryResponse struct {
	Incidents json.RawMessage `json:"incidents"`
	WIDs      []uint64        `json:"wids"`
	WorkerReply
}

// WorkerReply is the envelope of a reply: everything but the answer array.
type WorkerReply struct {
	// Worker echoes the Self the worker evaluated as.
	Worker string `json:"worker"`
	// WIDsOwned is how many instances of the worker's copy of the log lie
	// inside the requested interval — the coordinator cross-checks this
	// against its own part.
	WIDsOwned int `json:"wids_owned"`
	// Instances is the number of workflow instances the part's answer
	// covers: every owned one but those excluded, whether the scan evaluated
	// it or skipped it as one the plan cannot match (its share is empty).
	Instances int `json:"instances"`
	// Count is the number of incidents in the part, in every mode; the
	// coordinator cross-checks it against the answer array.
	Count int `json:"count"`
	// ElapsedUS is the worker-side wall time of the request, from admission
	// to the reply; PrepareUS and EvalUS are its two stages, resolving the
	// log, plan and part, then the scan. The coordinator times a traced
	// query's worker → prepare, eval subtree by them.
	ElapsedUS int64 `json:"elapsed_us"`
	PrepareUS int64 `json:"prepare_us"`
	EvalUS    int64 `json:"eval_us"`
	// Ops are the scan's per-node Lemma 1 counters in pre-order of the plan
	// (eval.Meter.Ops), one row per plan node whatever the mode: the
	// coordinator adds every merged reply's into one meter, the fleet's.
	Ops []eval.NodeOps `json:"ops"`
}

// A worker reply has one layout: the answer array's member first, its bytes
// as they stand, then the envelope's members — or, in mode "count", the
// envelope alone:
//
//	{"incidents":[{"wid":2,"seqs":[5,9]}],"worker":"w","wids_owned":1,…,"count":1,…}
//	{"wids":[2],"worker":"w",…}
//	{"worker":"w",…,"count":1,…}
//
// The array comes first because it is nearly all of an incidents reply:
// the worker writes it without encoding it again, and the coordinator checks
// it where it lies and hands the rest to encoding/json in one piece.

// replyOpen is how a reply to a request of the shape opens, up to its answer
// array; mode "count" has none.
var replyOpen = map[eval.Shape]string{eval.ShapeIncidents: `{"incidents":`, eval.ShapeInstances: `{"wids":`}

// WriteReply answers a worker request of the given shape with a 200 in the
// one layout. array is the answer — a wire-form incident list in mode
// "incidents", the wids as a compact JSON array in mode "instances", nil in
// mode "count" — and is written as it stands. When the envelope does not
// encode, WriteReply writes nothing and returns the error.
func WriteReply(w http.ResponseWriter, shape eval.Shape, array []byte, r *WorkerReply) error {
	env, err := json.Marshal(r)
	if err != nil {
		return err
	}
	env = append(env, '\n')
	open := replyOpen[shape]
	if open != "" {
		env[0] = ',' // the envelope's members follow the array
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(open)+len(array)+len(env)))
	w.WriteHeader(http.StatusOK)
	// A failed write is a coordinator that went away.
	io.WriteString(w, open)
	w.Write(array)
	w.Write(env)
	return nil
}

// The incident codec: the one way incidents cross a wire, whether to a
// client (POST /v1/query) or from a worker to its coordinator. An incident is
//
//	{"wid":2,"seqs":[5,9]}
//
// and a list of them a compact JSON array in canonical order
// (incident.Incident.Compare) — what encoding/json makes of
// []struct{WID uint64 `json:"wid"`; Seqs []uint64 `json:"seqs"`}, byte for
// byte, written and read without reflection or a per-incident copy. The
// writer is incident.AppendWire, which a served scan calls as each instance
// succeeds (eval.Evaluator.ServeCtx); the reader is below.
//
// There is one spelling. The reader accepts exactly what AppendWire
// writes — no whitespace, "wid" before "seqs", numbers in shortest decimal
// form — so that a list that reads is the canonical bytes of its incidents,
// and a coordinator that writes its workers' lists as one answer
// (AppendArray) writes what a single node would. The reader is one scanner
// (scanner.incidents), which DecodeIncidents, IncidentWIDs and the reply
// reader all go through. It checks every byte and every incident of every
// worker's answer; nothing is sampled or trusted.

// ErrMalformedIncidents is wrapped by every error of the answer readers: the
// bytes are not the one wire form of a canonical incident list (or, in a
// worker reply, of an ascending wid list). It is deterministic — the same
// reply reads the same way — so a coordinator does not retry it.
var ErrMalformedIncidents = errors.New("malformed incidents")

// DecodeIncidents reads the wire form back, the seqs carved from one
// incident.Slab. Anything but the bytes AppendWire writes for a
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

// An answer's incidents in wire form are its parts' lists, in canonical
// order one after another (Result.Incidents): one list on a node that
// evaluated the whole answer, one per part on a coordinator, each the bytes
// its worker sent. Nothing joins them into one slice; AppendArray writes
// them as one list.

// IncidentWIDs returns the distinct wids of an answer's lists, ascending.
// Each list must be AppendWire's bytes or have been read once already, as
// every answer array the query service holds is or was; a list that does
// not read yields the wids before the fault.
func IncidentWIDs(lists [][]byte) []uint64 {
	var wids []uint64
	for _, l := range lists {
		scanIncidentList(l, func(wid uint64, _ []uint64) {
			if len(wids) == 0 || wids[len(wids)-1] != wid {
				wids = append(wids, wid)
			}
		})
	}
	return wids
}

// CutIncidents returns the first n incidents of an answer's lists, which
// hold at least n: the lists before the one the n-th incident ends in, as
// they stand, then that one's first incidents as a list of its own, in a new
// slice. An incident is an object with no object inside it, so a list's
// closing braces count its incidents.
func CutIncidents(lists [][]byte, n int) [][]byte {
	for i, l := range lists {
		end := 1
		for ; n > 0; n-- {
			k := bytes.IndexByte(l[end:], '}')
			if k < 0 {
				break
			}
			end += k + 1
		}
		if n == 0 {
			return append(lists[:i:i], append(l[:end:end], ']'))
		}
	}
	return lists
}

// AppendArray appends to pieces the byte slices that, written in order,
// are the answer's lists as one: '[', each non-empty list's elements with a
// comma between lists, then ']'. The elements are not copied.
func AppendArray(pieces, lists [][]byte) [][]byte {
	pieces = append(pieces, listOpen)
	sep := false
	for _, l := range lists {
		if len(l) <= len("[]") {
			continue
		}
		if sep {
			pieces = append(pieces, listSep)
		}
		pieces, sep = append(pieces, l[1:len(l)-1]), true
	}
	return append(pieces, listClose)
}

// The punctuation AppendArray writes around and between an answer's lists.
var listOpen, listSep, listClose = []byte("["), []byte(","), []byte("]")

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

// The eight-byte words the incident reader compares in one load: an
// incident's opening with the byte before it — the list's '[' before the
// first, a ',' before every other — and the seqs member's key with the comma
// before it, which its '[' follows.
var (
	wordFirst = binary.LittleEndian.Uint64([]byte(`[{"wid":`))
	wordNext  = binary.LittleEndian.Uint64([]byte(`,{"wid":`))
	wordSeqs  = binary.LittleEndian.Uint64([]byte(`,"seqs":`))
)

// number reads an unsigned 64-bit integer in shortest decimal form at
// data[i:], returning it and the index after its digits, or the error and
// the index it lies at.
func number(data []byte, i int) (uint64, int, error) {
	start, v := i, uint64(0)
	// Nineteen digits cannot overflow, so they are summed with no test.
	for end := min(len(data), i+19); i < end; i++ {
		c := data[i] - '0'
		if c > 9 {
			break
		}
		v = v*10 + uint64(c)
	}
	if i-start == 19 {
		// A twentieth digit may overflow, and so may every one after it.
		for ; i < len(data); i++ {
			c := data[i] - '0'
			if c > 9 {
				break
			}
			if v > (math.MaxUint64-uint64(c))/10 {
				return 0, i, errors.New("number overflows uint64")
			}
			v = v*10 + uint64(c)
		}
	}
	switch n := i - start; {
	case n == 0:
		return 0, i, errors.New("want an unsigned integer")
	case n > 1 && data[start] == '0':
		return 0, i, errors.New("number has a leading zero")
	}
	return v, i, nil
}

// incidents reads one incident list, checking Definition 4 (seqs non-empty
// and strictly increasing) and the canonical order as it goes, and calls
// emit, when non-nil, with each incident; seqs is valid only during the call.
// The seqs of the incident before and of the one being read live in two
// buffers that trade places, so a list of any length costs two small
// allocations.
//
// It is one loop over a local cursor: an incident's opening and its seqs key
// are each one word compared (and a '[' after the key), and every other
// token is one byte. It reads the grammar the literals below spell, and on a
// mismatch names the literal it wanted.
func (s *scanner) incidents(emit func(wid uint64, seqs []uint64)) (sum listSummary, err error) {
	data, pos := s.data, s.pos
	if len(data)-pos < 8 || binary.LittleEndian.Uint64(data[pos:]) != wordFirst {
		// No first incident: the list is empty, or is no list.
		switch {
		case pos == len(data) || data[pos] != '[':
			err = errors.New(`want "["`)
		case pos+1 < len(data) && data[pos+1] == ']':
			pos += len("[]")
		default:
			pos, err = pos+1, errors.New(`want "{\"wid\":"`)
		}
		s.pos = pos
		return sum, err
	}
	pos += len(`[{"wid":`)
	// Room for incidents of up to eight records each, in one allocation.
	seqs := make([]uint64, 16)
	prev, cur := seqs[:0:8], seqs[8:8]
	for {
		// An incident, from after its `{"wid":`.
		var wid uint64
		if wid, pos, err = number(data, pos); err != nil {
			break
		}
		if len(data)-pos < len(`,"seqs":[`) || binary.LittleEndian.Uint64(data[pos:]) != wordSeqs || data[pos+8] != '[' {
			err = errors.New(`want ",\"seqs\":["`)
			break
		}
		pos += len(`,"seqs":[`)
		if pos < len(data) && data[pos] == ']' {
			err = errors.New("empty incident")
			break
		}
		cur = cur[:0]
		for {
			var v uint64
			if v, pos, err = number(data, pos); err != nil {
				break
			}
			if n := len(cur); n > 0 && v <= cur[n-1] {
				err = fmt.Errorf("is-lsn %d after %d: not strictly increasing", v, cur[n-1])
				break
			}
			cur = append(cur, v)
			if pos < len(data) && data[pos] == ',' {
				pos++
				continue
			}
			if len(data)-pos < len("]}") || data[pos] != ']' || data[pos+1] != '}' {
				err = errors.New(`want ',' or "]}"`)
				break
			}
			pos += len("]}")
			break
		}
		if err != nil {
			break
		}
		// Canonical order is wid order first, then first record: only a
		// wid's second incident that does not start later needs the whole
		// comparison.
		if sum.n > 0 && wid <= sum.last && (wid < sum.last || cur[0] <= prev[0]) {
			if p, o := incident.Adopt(sum.last, prev), incident.Adopt(wid, cur); p.Compare(o) >= 0 {
				err = fmt.Errorf("%v does not follow %v in canonical order", o, p)
				break
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
		if len(data)-pos >= 8 && binary.LittleEndian.Uint64(data[pos:]) == wordNext {
			pos += len(`,{"wid":`)
			continue
		}
		switch {
		case pos < len(data) && data[pos] == ']':
			pos++
		case pos < len(data) && data[pos] == ',':
			pos, err = pos+1, errors.New(`want "{\"wid\":"`)
		default:
			err = errors.New(`want ',' or "]"`)
		}
		break
	}
	s.pos = pos
	return sum, err
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
		v, pos, err := number(s.data, s.pos)
		s.pos = pos
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
// or an empty body), then in place (parseReply). The buffer is the one copy
// the coordinator makes of the answer array, which the reply's Incidents
// alias and an answer's Result keeps; it is not pooled. A body cut short is
// the transport's failure and worth a retry; a whole body that does not read
// is not — asking again gets the same bytes.
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

// parseReply reads a worker's success body in place: the shape's opening
// (replyOpen), the answer array by the scanner, where it lies, and the comma
// after it, overwritten with '{' so that the envelope's members go through
// encoding/json as one object. The returned Incidents aliases body.
//
// A reply reads if it is one JSON object in the one layout whose answer
// array is in the one wire spelling; an answer member inside the envelope —
// a second array, or one in mode "count" — is an error.
func parseReply(body []byte, shape eval.Shape) (*WorkerQueryResponse, listSummary, error) {
	var (
		resp WorkerQueryResponse
		sum  listSummary
	)
	env := body
	if open := replyOpen[shape]; open != "" {
		s := scanner{data: body}
		if !s.lit(open) {
			return nil, sum, fmt.Errorf("%w: the reply does not open with %s (a worker from an older release?)", ErrMalformedIncidents, open)
		}
		var err error
		if shape == eval.ShapeIncidents {
			sum, err = s.incidents(nil)
			resp.Incidents = body[len(open):s.pos:s.pos]
		} else if resp.WIDs, err = s.wids(); len(resp.WIDs) > 0 {
			sum = listSummary{n: len(resp.WIDs), first: resp.WIDs[0], last: resp.WIDs[len(resp.WIDs)-1]}
		}
		if err == nil {
			// The envelope's first member follows at once.
			err = s.want(`,"`)
		}
		if err != nil {
			return nil, listSummary{}, s.malformed(err)
		}
		env = body[s.pos-2:]
		env[0] = '{'
	}
	var e replyEnvelope
	if err := json.Unmarshal(env, &e); err != nil {
		return nil, listSummary{}, fmt.Errorf("decode worker response: %w", err)
	}
	if e.Incidents != nil || e.WIDs != nil {
		return nil, listSummary{}, fmt.Errorf("%w: an answer member in the envelope", ErrMalformedIncidents)
	}
	resp.WorkerReply = e.WorkerReply
	return &resp, sum, nil
}

// replyEnvelope is what encoding/json reads of a reply. Its answer-array
// members catch one inside the envelope, under any name encoding/json would
// read into a WorkerQueryResponse's array.
type replyEnvelope struct {
	Incidents json.RawMessage `json:"incidents"`
	WIDs      json.RawMessage `json:"wids"`
	WorkerReply
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
