package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"

	"wlq/internal/colstore"
	"wlq/internal/ingest"
	"wlq/internal/logio"
	"wlq/internal/obs"
	"wlq/internal/wal"
	"wlq/internal/wlog"
)

// Live ingestion: POST /v1/logs/{name}/append writes records through a
// per-log write-ahead log into the live store (internal/ingest owns the
// WAL-then-apply ordering; this file owns the HTTP surface). See
// docs/DURABILITY.md.

// DefaultIngestQueue is the per-log append admission bound when
// Config.IngestQueue is 0: deep enough that bursty appenders rarely see
// 429, shallow enough that a stalled disk sheds instead of queueing
// unboundedly.
const DefaultIngestQueue = 256

// openIngest builds one log's durable ingest coordinator over its WAL
// directory. Called under s.mu from AddStore.
func (s *Server) openIngest(name string, st *colstore.Store) (*ingest.Coordinator, wal.Recovery, error) {
	if s.cfg.WALDir == "" {
		return nil, wal.Recovery{}, errors.New("ingest enabled but Config.WALDir is empty")
	}
	queue := s.cfg.IngestQueue
	if queue == 0 {
		queue = DefaultIngestQueue
	}
	return ingest.OpenStore(st, ingest.Config{
		Dir:           filepath.Join(s.cfg.WALDir, sanitizeWALName(name)),
		Policy:        s.cfg.FsyncPolicy,
		FsyncInterval: s.cfg.FsyncInterval,
		SegmentBytes:  s.cfg.WALSegmentBytes,
		Queue:         queue,
		ObserveFsync:  s.metrics.fsyncHist.Observe,
	})
}

// sanitizeWALName maps a log name to a filesystem-safe WAL subdirectory
// name: anything outside [A-Za-z0-9._-] becomes '_', and a leading dot is
// escaped so the directory is never hidden or a path traversal.
func sanitizeWALName(name string) string {
	var sb strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			sb.WriteByte(c)
		case c == '.' && i > 0:
			sb.WriteByte(c)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// appendResponse is the POST /v1/logs/{name}/append result. The body is a
// stream of JSONL records (the logio wire form, one per line); all of them
// were durably logged and applied in order when the status is 200.
type appendResponse struct {
	Log string `json:"log"`
	// Appended is how many records this request persisted; FirstLSN and
	// LastLSN bracket their assigned log sequence numbers. LastLSN is the
	// watermark an appender resumes from after a reconnect.
	Appended int    `json:"appended"`
	FirstLSN uint64 `json:"first_lsn,omitempty"`
	LastLSN  uint64 `json:"last_lsn"`
}

// handleAppend is POST /v1/logs/{name}/append. The body's records are one
// batch: read in full, then checked, logged and published by one
// ingest.Coordinator.Append — one WAL write, one fsync, one store version.
// When the check refuses a record, or the body breaks off (malformed line,
// over -max-body) after some records, the records before that point are
// still appended: the response names the failure AND reports how many
// records were accepted. Those are durable and are NOT rolled back (the WAL
// is append-only; clients resume from last_lsn).
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	entry, err := s.lookup(r.PathValue("name"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	if entry.live == nil {
		writeError(w, http.StatusConflict, "log %q does not accept appends", entry.name)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	lr := logio.NewReader(r.Body, logio.FormatJSONL)
	var recs []wlog.Record
	var readErr error
	for {
		rec, err := lr.Read()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				readErr = err
			}
			break
		}
		recs = append(recs, rec)
	}
	if len(recs) == 0 && readErr == nil {
		writeError(w, http.StatusBadRequest, "empty append: no records in request body")
		return
	}
	resp := appendResponse{Log: entry.name}
	if len(recs) > 0 {
		n, err := entry.live.Append(recs...)
		if n > 0 {
			resp.Appended, resp.FirstLSN, resp.LastLSN = n, recs[0].LSN, recs[n-1].LSN
		}
		if err != nil {
			s.writeAppendError(w, entry, resp, recs[n], err)
			return
		}
	}
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(readErr, &tooBig):
		s.appendFailure(w, http.StatusRequestEntityTooLarge, resp, errorDoc{
			Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit),
		})
	case readErr != nil:
		s.appendFailure(w, http.StatusBadRequest, resp, errorDoc{
			Error: fmt.Sprintf("malformed record: %v", readErr),
		})
	default:
		writeJSON(w, http.StatusOK, resp)
	}
}

// writeAppendError maps a coordinator append failure to its HTTP shape:
// 422 for a Definition 2 rejection (naming rec, the refused record), 429 +
// Retry-After under backpressure, 503 when durability itself failed (the
// WAL could not persist the batch, whose first record rec is; nothing was
// applied).
func (s *Server) writeAppendError(w http.ResponseWriter, entry *logEntry, resp appendResponse, rec wlog.Record, err error) {
	var invalid *wlog.ValidationError
	switch {
	case errors.As(err, &invalid):
		s.appendFailure(w, http.StatusUnprocessableEntity, resp, errorDoc{
			Error:  fmt.Sprintf("record rejected: %v", err),
			Record: rec.String(),
		})
	case errors.Is(err, ingest.ErrBusy):
		retry := retryAfterSeconds(entry.live.Admission().RetryAfter())
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		s.appendFailure(w, http.StatusTooManyRequests, resp, errorDoc{
			Error:             "ingest saturated: apply queue full",
			RetryAfterSeconds: retry,
		})
	default:
		// The WAL refused or broke: acknowledging the batch would promise
		// durability the disk did not deliver. 503 — the condition is
		// sticky until the operator intervenes (see docs/DURABILITY.md).
		s.appendFailure(w, http.StatusServiceUnavailable, resp, errorDoc{
			Error:  fmt.Sprintf("durability failure, records not accepted: %v", err),
			Record: rec.String(),
		})
	}
}

// appendFailure writes an append error envelope. Records accepted before
// the failure are durable; the doc's Accepted field says how many.
func (s *Server) appendFailure(w http.ResponseWriter, code int, resp appendResponse, doc errorDoc) {
	doc.Accepted = resp.Appended
	if resp.Appended > 0 {
		doc.LastLSN = resp.LastLSN
	}
	writeJSON(w, code, doc)
}

// Close releases server-held resources: every live log's WAL is synced and
// closed. Queries keep working against the in-memory state; appends to a
// closed WAL fail. Call once, after the HTTP server has drained.
func (s *Server) Close() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var first error
	for _, name := range s.names {
		if e := s.logs[name]; e.live != nil {
			if err := e.live.Close(); err != nil && first == nil {
				first = fmt.Errorf("server: close wal for %q: %w", name, err)
			}
		}
	}
	return first
}

// ingestLogDoc is one live log's row in the metrics ingest section.
type ingestLogDoc struct {
	Log           string `json:"log"`
	LastLSN       uint64 `json:"last_lsn"`
	QueueDepth    int    `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`
	Segments      int    `json:"wal_segments"`
}

// ingestMetricsDoc is the ingest section of the metrics document: the
// server's live cache-invalidation counter and WAL fsync histogram beside
// the totals filled in at scrape time. Present only with Config.Ingest.
// Tags as on metricsDoc.
type ingestMetricsDoc struct {
	ingestTotals
	CacheInvalidations obs.Counter    `json:"cache_invalidations" prom:"wlq_ingest_cache_invalidations_total" help:"Cached results dropped because a record appended since, or a rebase, can have changed them."`
	FsyncDuration      *obs.Histogram `json:"-" prom:"wlq_ingest_fsync_duration_seconds" help:"WAL fsync latency."`
}

// ingestTotals are the ingest section's scrape-time fields: the coordinator
// and WAL counters summed across live logs (the same pattern as the cluster
// section), the fsync histogram's scalar summary for JSON, and the per-log
// rows.
type ingestTotals struct {
	Accepted     uint64         `json:"accepted" prom:"wlq_ingest_appends_total" help:"Records durably appended and applied."`
	Rejected     uint64         `json:"rejected" prom:"wlq_ingest_rejected_total" help:"Appends rejected for violating the log discipline (422)."`
	Shed         uint64         `json:"shed" prom:"wlq_ingest_shed_total" help:"Appends shed by apply-queue backpressure (429)."`
	Replayed     uint64         `json:"replayed" prom:"wlq_ingest_replayed_total" help:"WAL records replayed into the index at startup or reload."`
	Deduped      uint64         `json:"deduped" prom:"wlq_ingest_deduped_total" help:"WAL records skipped on replay as already in the snapshot."`
	WALAppends   uint64         `json:"wal_appends"`
	WALBytes     uint64         `json:"wal_bytes" prom:"wlq_ingest_wal_bytes_total" help:"Framed bytes written to WAL segments."`
	WALFsyncs    uint64         `json:"wal_fsyncs" prom:"wlq_ingest_wal_fsyncs_total" help:"Explicit WAL fsyncs issued."`
	WALRotations uint64         `json:"wal_rotations" prom:"wlq_ingest_wal_rotations_total" help:"WAL segment rotations."`
	WALSegments  int            `json:"wal_segments" prom:"wlq_ingest_wal_segments" help:"Live WAL segment files across logs."`
	WALTornBytes int64          `json:"wal_torn_bytes" prom:"wlq_ingest_wal_torn_bytes_total" help:"Bytes truncated as torn tails by recovery scans."`
	FsyncCount   uint64         `json:"fsync_count"`
	FsyncSumUS   int64          `json:"fsync_sum_us"`
	Logs         []ingestLogDoc `json:"logs,omitempty"`
}

// scrapeIngest fills the ingest section's scrape-time fields.
func (s *Server) scrapeIngest(doc *ingestMetricsDoc) {
	s.mu.RLock()
	coords := make([]*logEntry, 0, len(s.names))
	for _, name := range s.names {
		if e := s.logs[name]; e.live != nil {
			coords = append(coords, e)
		}
	}
	s.mu.RUnlock()
	fsync := doc.FsyncDuration.Snapshot()
	t := ingestTotals{FsyncCount: fsync.Count, FsyncSumUS: fsync.SumUS}
	for _, e := range coords {
		st := e.live.Stats()
		t.Accepted += st.Accepted
		t.Rejected += st.Rejected
		t.Shed += st.Shed
		t.Replayed += st.Replayed
		t.Deduped += st.Deduped
		t.WALAppends += st.WAL.Appends
		t.WALBytes += st.WAL.Bytes
		t.WALFsyncs += st.WAL.Fsyncs
		t.WALRotations += st.WAL.Rotations
		t.WALSegments += st.WAL.Segments
		t.WALTornBytes += st.WAL.TornBytes
		t.Logs = append(t.Logs, ingestLogDoc{
			Log:           e.name,
			LastLSN:       st.LastLSN,
			QueueDepth:    st.QueueDepth,
			QueueCapacity: st.QueueCapacity,
			Segments:      st.WAL.Segments,
		})
	}
	doc.ingestTotals = t
}
