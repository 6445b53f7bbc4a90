package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
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
// one layout. lists are the answer array as lists of its elements in order —
// the answer's incident lists (eval.Answer.Wire) in mode "incidents", one
// compact JSON array of the wids in mode "instances", nil in mode "count" —
// written as one array (incident.AppendArray), their bytes as they stand.
// When the envelope does not encode, WriteReply writes nothing and returns
// the error.
func WriteReply(w http.ResponseWriter, shape eval.Shape, lists [][]byte, r *WorkerReply) error {
	env, err := json.Marshal(r)
	if err != nil {
		return err
	}
	env = append(env, '\n')
	var pieces [][]byte
	n := len(env)
	if open := replyOpen[shape]; open != "" {
		pieces = incident.AppendArray([][]byte{[]byte(open)}, lists)
		n += len(open) + incident.ArrayLen(lists)
		env[0] = ',' // the envelope's members follow the array
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(http.StatusOK)
	for _, p := range append(pieces, env) {
		w.Write(p) // a failed write is a coordinator that went away
	}
	return nil
}

// maxPresized bounds the buffer readReply reserves from a Content-Length
// header, so that a header that lies cannot reserve memory its body never
// sends; a longer body is read as it comes.
const maxPresized = 64 << 20

// readReply reads a worker's success body to a request of the given shape:
// whole, into one buffer of the length its header announced (size <= 0: none,
// or an empty body), then in place (parseReply). The buffer is the one copy
// the coordinator makes of the answer array, which the reply's Incidents
// alias and the coordinator's answer keeps (eval.Answer.Wire); it is not
// pooled. A body cut short is
// the transport's failure and worth a retry; a whole body that does not read
// is not — asking again gets the same bytes.
func readReply(body io.Reader, size int64, shape eval.Shape) (*WorkerQueryResponse, incident.ListSummary, error) {
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
		return nil, incident.ListSummary{}, fmt.Errorf("read worker response: %w", err)
	}
	resp, sum, err := parseReply(buf, shape)
	if err != nil {
		return nil, incident.ListSummary{}, nonRetryable(err)
	}
	return resp, sum, nil
}

// parseReply reads a worker's success body in place: the shape's opening
// (replyOpen), the answer array by the wire form's scanner
// (incident.ScanList, incident.ScanWIDs), where it lies, and the comma after
// it, overwritten with '{' so that the envelope's members go through
// encoding/json as one object. The returned Incidents aliases body.
//
// A reply reads if it is one JSON object in the one layout whose answer
// array is in the one wire spelling; an answer member inside the envelope —
// a second array, or one in mode "count" — is an error.
func parseReply(body []byte, shape eval.Shape) (*WorkerQueryResponse, incident.ListSummary, error) {
	var (
		resp WorkerQueryResponse
		sum  incident.ListSummary
	)
	env := body
	if open := replyOpen[shape]; open != "" {
		if !bytes.HasPrefix(body, []byte(open)) {
			return nil, sum, fmt.Errorf("%w: the reply does not open with %s (a worker from an older release?)", incident.ErrMalformedIncidents, open)
		}
		end, err := len(open), error(nil)
		if shape == eval.ShapeIncidents {
			sum, end, err = incident.ScanList(body, end)
			resp.Incidents = body[len(open):end:end]
		} else if resp.WIDs, end, err = incident.ScanWIDs(body, end); len(resp.WIDs) > 0 {
			sum = incident.ListSummary{N: len(resp.WIDs), First: resp.WIDs[0], Last: resp.WIDs[len(resp.WIDs)-1]}
		}
		if err == nil && !bytes.HasPrefix(body[end:], []byte(`,"`)) {
			// The envelope's first member follows at once.
			err = fmt.Errorf("%w at offset %d: want %q", incident.ErrMalformedIncidents, end, `,"`)
		}
		if err != nil {
			return nil, incident.ListSummary{}, err
		}
		env = body[end:]
		env[0] = '{'
	}
	var e replyEnvelope
	if err := json.Unmarshal(env, &e); err != nil {
		return nil, incident.ListSummary{}, fmt.Errorf("decode worker response: %w", err)
	}
	if e.Incidents != nil || e.WIDs != nil {
		return nil, incident.ListSummary{}, fmt.Errorf("%w: an answer member in the envelope", incident.ErrMalformedIncidents)
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
