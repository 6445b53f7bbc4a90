// Command wlq-serve runs the long-lived HTTP query service: it loads one or
// more workflow logs at startup, builds each log's index once, and serves
// incident-pattern queries with plan/result caching.
//
// Usage:
//
//	wlq-serve -log referrals.jsonl
//	wlq-serve -log clinic=clinic:2000:7 -log fig3=fig3 -addr :8080
//	wlq-serve -log big.jsonl -workers 8 -cache 1024 -timeout 5s
//	wlq-serve -log live.jsonl -ingest -wal-dir /var/lib/wlq/wal        (live appends)
//	wlq-serve -log big.jsonl -worker -addr :9001                      (cluster worker)
//	wlq-serve -log big.jsonl -cluster-workers http://w1:9001,http://w2:9002
//	                                                                   (cluster coordinator)
//
// In cluster mode every node loads the same -log specs; the coordinator
// gives each worker one contiguous wid range of the log, in -cluster-workers
// order, and fans each query out to them (see docs/OPERATIONS.md, "Cluster
// deployment").
//
// Each -log flag (repeatable) is either a bare log specification — file
// path, "fig3", "clinic:<instances>:<seed>", "model:<name>:<instances>:<seed>"
// — or "<name>=<spec>" to choose the name the API addresses the log by.
// A bare spec is named after its basename ("referrals" for
// /data/referrals.jsonl).
//
// Endpoints: POST /v1/query, GET /v1/explain, GET /v1/logs, GET /v1/queries
// (the query flight recorder; /v1/queries/{id} for one full capture),
// GET /metrics (JSON, or Prometheus text with ?format=prometheus),
// GET /healthz, GET /readyz and GET /debug/pprof/*. See docs/OPERATIONS.md
// for the full reference and docs/OBSERVABILITY.md for tracing and metrics.
//
// The service logs one structured line per request (slog, text by default,
// JSON with -log-json) and warns about queries slower than -slow-query.
//
// The process shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// get a drain window before the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"wlq"
	"wlq/internal/cluster"
	"wlq/internal/colstore"
	"wlq/internal/server"
	"wlq/internal/wal"
)

// logFlags collects repeated -log arguments.
type logFlags []string

func (f *logFlags) String() string { return strings.Join(*f, ", ") }

func (f *logFlags) Set(v string) error {
	if v == "" {
		return errors.New("empty -log value")
	}
	*f = append(*f, v)
	return nil
}

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wlq-serve:", err)
		os.Exit(1)
	}
}

// run configures and serves until ctx is cancelled or SIGINT/SIGTERM lands.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("wlq-serve", flag.ContinueOnError)
	fs.SetOutput(out)
	var logs logFlags
	fs.Var(&logs, "log", "log to serve, \"<spec>\" or \"<name>=<spec>\" (repeatable)")
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		workers    = fs.Int("workers", 0, "evaluation workers per query (0 = GOMAXPROCS)")
		cache      = fs.Int("cache", server.DefaultCacheSize, "plan/result cache entries (negative disables)")
		timeout    = fs.Duration("timeout", server.DefaultTimeout, "per-request evaluation timeout")
		maxBody    = fs.Int64("max-body", server.DefaultMaxBody, "request body size limit in bytes")
		naive      = fs.Bool("naive", false, "default to the paper's verbatim Algorithm 1 joins")
		drain      = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain window")
		slow       = fs.Duration("slow-query", 500*time.Millisecond, "warn about queries slower than this (0 disables)")
		flightSize = fs.Int("flight-recorder-size", server.DefaultFlightRecorderSize,
			"query flight recorder capacity per ring (recent + notable); 0 or negative disables GET /v1/queries")
		pprofOn = fs.Bool("pprof", true, "expose the GET /debug/pprof/* profiling handlers")
		logJSON = fs.Bool("log-json", false, "emit request logs as JSON instead of text")
		noLog   = fs.Bool("no-request-log", false, "disable structured request logging")

		maxInFlight = fs.Int("max-inflight", server.DefaultMaxInFlight,
			"concurrent queries admitted before shedding with 429 (negative = unlimited)")
		maxComp = fs.Uint64("max-comparisons", 0,
			"per-query comparison budget; exceeding it aborts with 422 (0 = unlimited)")
		maxOutputs = fs.Uint64("max-outputs", 0,
			"per-query produced-incident budget (0 = unlimited)")
		maxResultBytes = fs.Uint64("max-result-bytes", 0,
			"per-query result-size budget in bytes (0 = unlimited)")
		maxCost = fs.Float64("max-predicted-cost", 0,
			"pre-flight ceiling on the plan's Lemma 1 cost estimate; costlier queries are rejected with 422 before evaluation (0 disables)")

		worker = fs.Bool("worker", false,
			"serve as a cluster worker: expose POST /v1/worker/query evaluating coordinator-shipped plans against the wid range each request names")
		clusterWorkers = fs.String("cluster-workers", "",
			"comma-separated worker base URLs; non-empty runs this instance as a cluster coordinator fanning every query out to the fleet")
		workerTimeout = fs.Duration("worker-timeout", 0,
			"coordinator's per-attempt deadline for one worker request (0 = default 5s)")
		workerAttempts = fs.Int("worker-attempts", 0,
			"coordinator's request attempts per worker per query, first try included (0 = default 2)")
		probeInterval = fs.Duration("probe-interval", 0,
			"coordinator's worker health-probe period feeding /readyz (0 = default 5s)")

		ingestOn = fs.Bool("ingest", false,
			"accept live appends on POST /v1/logs/{name}/append, made durable through a per-log write-ahead log before they are applied or acknowledged (requires -wal-dir; incompatible with -worker and -cluster-workers)")
		walDir = fs.String("wal-dir", "",
			"directory holding one WAL subdirectory per log; replayed over the loaded snapshot at startup to recover acknowledged appends")
		fsyncMode = fs.String("fsync", "always",
			"WAL durability policy: always (fsync every append), interval (group fsync on a timer), never (OS page cache only)")
		fsyncInterval = fs.Duration("fsync-interval", 0,
			"group-fsync period for -fsync=interval (0 = default 100ms)")
		walSegmentBytes = fs.Int64("wal-segment-bytes", 0,
			"rotate WAL segments at this size (0 = default 64MiB)")
		ingestQueue = fs.Int("ingest-queue", 0,
			"pending appends admitted per log before backpressure sheds with 429 (0 = default 256)")

		breakerThreshold = fs.Int("breaker-threshold", 0,
			"coordinator: consecutive failures of a worker that open its circuit breaker (0 = default 5)")
		breakerCooldown = fs.Duration("breaker-cooldown", 0,
			"coordinator: how long an open worker breaker waits before admitting a probe (0 = default 30s)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(logs) == 0 {
		fs.Usage()
		return errors.New("missing -log (repeat it to serve several logs)")
	}

	// Live ingestion. Validated here, like the cluster flags, so a bad
	// combination is an error message rather than a server.New panic.
	var fsyncPolicy wal.Policy
	if *ingestOn {
		if *worker || *clusterWorkers != "" {
			return errors.New("-ingest is incompatible with -worker and -cluster-workers (appends are single-node; see docs/DURABILITY.md)")
		}
		if *walDir == "" {
			return errors.New("-ingest requires -wal-dir (appends are acknowledged only after they are durable)")
		}
		var err error
		if fsyncPolicy, err = wal.ParsePolicy(*fsyncMode); err != nil {
			return fmt.Errorf("-fsync: %w", err)
		}
	}

	// Cluster roles. The flag is validated here (server.New treats a bad
	// cluster config as a programming error) so the operator gets a clean
	// message, not a panic.
	var clusterCfg *cluster.Config
	if *clusterWorkers != "" {
		urls := splitWorkers(*clusterWorkers)
		seen := make(map[string]bool, len(urls))
		for _, u := range urls {
			if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
				return fmt.Errorf("-cluster-workers: %q is not an http(s) base URL", u)
			}
			if seen[u] {
				return fmt.Errorf("-cluster-workers: duplicate worker %q", u)
			}
			seen[u] = true
		}
		if len(urls) == 0 {
			return errors.New("-cluster-workers: no worker URLs")
		}
		clusterCfg = &cluster.Config{
			Workers:          urls,
			WorkerTimeout:    *workerTimeout,
			MaxAttempts:      *workerAttempts,
			BreakerThreshold: *breakerThreshold,
			BreakerCooldown:  *breakerCooldown,
		}
	}

	cfg := server.Config{
		Workers:      *workers,
		CacheSize:    *cache,
		Timeout:      *timeout,
		MaxBodyBytes: *maxBody,
		SlowQuery:    *slow,
		EnablePprof:  *pprofOn,
		MaxInFlight:  *maxInFlight,
		Budget: wlq.Budget{
			MaxComparisons: *maxComp,
			MaxOutputs:     *maxOutputs,
			MaxResultBytes: *maxResultBytes,
		},
		MaxPredictedCost: *maxCost,
		Loader:           wlq.StreamLog,
		WorkerMode:       *worker,
		Cluster:          clusterCfg,
		ProbeInterval:    *probeInterval,
		Ingest:           *ingestOn,
		WALDir:           *walDir,
		FsyncPolicy:      fsyncPolicy,
		FsyncInterval:    *fsyncInterval,
		WALSegmentBytes:  *walSegmentBytes,
		IngestQueue:      *ingestQueue,
	}
	if *flightSize > 0 {
		cfg.FlightRecorderSize = *flightSize
	} else {
		cfg.FlightRecorderSize = -1 // disable
	}
	if *naive {
		cfg.Strategy = wlq.StrategyNaive
	}
	if !*noLog {
		if *logJSON {
			cfg.Logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
		} else {
			cfg.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
		}
	}
	srv := server.New(cfg)
	for _, arg := range logs {
		name, spec := splitLogArg(arg)
		// A log file's records go into the store as they are read, so the
		// process never holds the decoded log; one that breaks Definition 2
		// fails the start with its first violation.
		var b colstore.Builder
		err := wlq.StreamLog(spec, b.Add)
		var st *colstore.Store
		if err == nil {
			st, err = b.Finish()
		}
		if err != nil {
			return fmt.Errorf("load %q: %w", spec, err)
		}
		if err := srv.AddStore(name, spec, st, nil); err != nil {
			return err
		}
		fmt.Fprintf(out, "loaded %q from %s: %d records, %d instances\n",
			name, spec, st.TotalRecords(), len(st.WIDs()))
	}

	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Coordinator role: probe the fleet in the background so /readyz reports
	// lost workers without waiting for a query to trip a breaker.
	if clusterCfg != nil {
		fmt.Fprintf(out, "coordinating %d workers (range placement)\n", len(clusterCfg.Workers))
		srv.StartClusterProbing(ctx)
	}
	if *worker {
		fmt.Fprintln(out, "worker mode: serving POST /v1/worker/query")
	}
	if *ingestOn {
		fmt.Fprintf(out, "live ingestion on: WAL under %s (fsync %s)\n", *walDir, *fsyncMode)
	}

	// SIGHUP triggers a hot reload of every log (same pass as POST
	// /v1/reload): a log that fails to load or validate is quarantined and
	// the last-good snapshot keeps serving.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case <-hup:
				res, err := srv.ReloadLogs()
				if err != nil {
					fmt.Fprintf(out, "reload: %v\n", err)
					continue
				}
				fmt.Fprintf(out, "reloaded %d log(s), %d quarantined\n",
					len(res.Reloaded), len(res.Quarantined))
			}
		}
	}()

	err := serve(ctx, *addr, *drain, srv.Handler(), out)
	// Close the WALs only after the listener has drained: an in-flight append
	// acknowledged over a closed WAL would be a durability lie.
	if cerr := srv.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// serve listens until ctx is cancelled, then drains in-flight requests.
func serve(ctx context.Context, addr string, drain time.Duration, h http.Handler, out io.Writer) error {
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "serving on %s\n", ln.Addr())

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// splitWorkers parses the comma-separated -cluster-workers list, trimming
// whitespace and dropping empty elements (a trailing comma is not an error).
func splitWorkers(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, strings.TrimSuffix(part, "/"))
		}
	}
	return out
}

// splitLogArg parses "<name>=<spec>" or a bare spec. Bare file paths are
// named by basename without extension; bare generator specs by their prefix
// ("fig3", "clinic", "model").
func splitLogArg(arg string) (name, spec string) {
	if n, s, ok := strings.Cut(arg, "="); ok && n != "" && !strings.Contains(n, "/") && !strings.Contains(n, ":") {
		return n, s
	}
	spec = arg
	if i := strings.IndexByte(spec, ':'); i >= 0 && !strings.ContainsAny(spec[:i], "./\\") {
		return spec[:i], spec // generator spec: clinic:100:7 -> "clinic"
	}
	base := filepath.Base(spec)
	if ext := filepath.Ext(base); ext != "" {
		base = strings.TrimSuffix(base, ext)
	}
	return base, spec
}
