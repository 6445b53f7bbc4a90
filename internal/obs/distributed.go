package obs

import (
	"crypto/rand"
	"encoding/hex"
	"time"
)

// Distributed tracing support: trace and span ids in the W3C shape, and
// worker attribution stamping. Nothing of a trace crosses the wire: a cluster
// coordinator builds each worker's subtree under the transport span that
// carried the worker's reply, from the reply's counters and stage timings
// (AddChild), and stamps it with the worker's URL.

// NewTraceID mints a 32-hex-char (16-byte) trace id.
func NewTraceID() string { return randHex(16) }

// NewSpanID mints a 16-hex-char (8-byte) span id.
func NewSpanID() string { return randHex(8) }

// randHex returns n random bytes in lowercase hex, falling back to a
// time-derived value if the system entropy source fails.
func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		now := time.Now().UnixNano()
		for i := range b {
			b[i] = byte(now >> (8 * (i % 8)))
		}
	}
	return hex.EncodeToString(b)
}

// StampWorker labels every span of the subtree that does not already carry
// a worker attribution. The coordinator stamps each worker subtree it builds
// with the worker's URL, and "coordinator" over the stitched trace
// afterwards, filling exactly the locally recorded spans. Call only once the
// spans are quiescent (trace ended or subtree just built).
func StampWorker(s *Span, worker string) {
	if s == nil || worker == "" {
		return
	}
	if s.Worker == "" {
		s.Worker = worker
	}
	for _, c := range s.Children {
		StampWorker(c, worker)
	}
}
