package server

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain fails the package when its tests leave goroutines of this module
// running: a probe loop nobody cancelled, a part's goroutine the fan-out
// did not wait for. The race detector finds none of those.
func TestMain(m *testing.M) {
	code := m.Run()
	if leaked := leakedGoroutines(); code == 0 && len(leaked) > 0 {
		fmt.Fprintf(os.Stderr, "%d goroutines leaked by the tests:\n\n%s\n", len(leaked), strings.Join(leaked, "\n\n"))
		code = 1
	}
	os.Exit(code)
}

// leakedGoroutines returns the stacks of the goroutines, other than the
// caller's, that are still inside this module's code. Goroutines on their way
// out get two seconds to finish.
func leakedGoroutines() []string {
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	var leaked []string
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		dump := string(buf[:runtime.Stack(buf, true)])
		leaked = leaked[:0]
		// The first stack of the dump is the calling goroutine's.
		for _, g := range strings.Split(strings.TrimSpace(dump), "\n\n")[1:] {
			if strings.Contains(g, "wlq/") {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
	}
}
