package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"wlq/internal/cluster"
	"wlq/internal/server"
	"wlq/internal/wlog"
)

// repoRoot is where the program under test lives, relative to the
// benchmark's own directory (run.sh and `go test` both run from bench/).
const repoRoot = ".."

// cleaner runs registered teardown steps once, newest first: on normal exit,
// on a failed run, and on SIGINT/SIGTERM.
type cleaner struct {
	mu  sync.Mutex
	fns []func()
}

func (c *cleaner) add(fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fns = append(c.fns, fn)
}

func (c *cleaner) run() {
	c.mu.Lock()
	fns := c.fns
	c.fns = nil
	c.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// node is one server under test: a wlq-serve child process, or with -smoke an
// in-process httptest server. pid names the process whose CPU time and peak
// memory price the node (the benchmark's own for an in-process node).
type node struct {
	url   string
	flags string
	pid   int
	stop  func()
}

// harness holds what every workload's servers are started with.
type harness struct {
	inproc bool   // -smoke: no child processes
	bin    string // built wlq-serve
	clean  *cleaner
}

// buildServer compiles cmd/wlq-serve from the checkout into dir.
func buildServer(dir string) (string, error) {
	if _, err := os.Stat(filepath.Join(repoRoot, "cmd", "wlq-serve")); err != nil {
		return "", fmt.Errorf("run from the bench/ directory of a wlq checkout: %w", err)
	}
	bin, err := filepath.Abs(filepath.Join(dir, "wlq-serve"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/wlq-serve")
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/wlq-serve: %w\n%s", err, out)
	}
	return bin, nil
}

// probePort checks that the loopback port is free, or with port 0 asks the
// kernel for a free one, and returns it.
func probePort(port int) (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(port))
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// workerPorts are where fanout-2w's workers listen. The coordinator places
// workflow instances by hashing the worker URLs, so kernel-picked ports would
// split the log differently between the workers on every run. The run fails
// if one of them is taken.
var workerPorts = []int{28471, 28571}

// launch starts one server on the named log file (child process) or log
// (in-process) and returns once /readyz answers 200. flags and cfg describe
// the same configuration for the two modes; port 0 means a kernel-picked one.
func (h *harness) launch(port int, flags []string, cfg server.Config, logPath string, l *wlog.Log) (*node, error) {
	if h.inproc {
		cfg.ProbeInterval = -1
		srv := server.New(cfg)
		if err := srv.AddLog(logName, logPath, l); err != nil {
			return nil, err
		}
		ts := httptest.NewServer(srv.Handler())
		n := &node{url: ts.URL, flags: "in-process " + strings.Join(flags, " "), pid: os.Getpid()}
		var once sync.Once
		n.stop = func() { once.Do(func() { ts.Close(); srv.Close() }) }
		h.clean.add(n.stop)
		return n, nil
	}
	port, err := probePort(port)
	if err != nil {
		return nil, fmt.Errorf("no port for a server with flags %v: %w", flags, err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := append([]string{"-log", logName + "=" + logPath, "-addr", addr, "-no-request-log"}, flags...)
	cmd := exec.Command(h.bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	// Own process group so a terminal's Ctrl-C reaches the benchmark first,
	// and a kill signal should the benchmark itself die without cleaning up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	exited := make(chan struct{})
	go func() { cmd.Wait(); close(exited) }()
	n := &node{url: "http://" + addr, flags: strings.Join(args, " "), pid: cmd.Process.Pid}
	var once sync.Once
	n.stop = func() {
		once.Do(func() {
			cmd.Process.Signal(syscall.SIGTERM)
			select {
			case <-exited:
			case <-time.After(3 * time.Second):
				cmd.Process.Kill()
				<-exited
			}
		})
	}
	h.clean.add(n.stop)
	if err := waitReady(n.url, exited, 60*time.Second); err != nil {
		n.stop()
		return nil, fmt.Errorf("%w\nflags: %s\nstderr:\n%s", err, n.flags, stderr.String())
	}
	return n, nil
}

// waitReady polls /readyz until it answers 200, the process exits, or the
// timeout passes.
func waitReady(url string, exited <-chan struct{}, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-exited:
			return errors.New("server exited before it was ready")
		default:
		}
		resp, err := http.Get(url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("%s/readyz not 200 within %v", url, timeout)
}

// workloadDef is one traffic mix and the servers it runs against; README.md
// and BENCHMARK.json say why each was chosen.
type workloadDef struct {
	name     string
	appender bool
	multiset func() []request
	// start brings the servers up, the queried node first.
	start func(h *harness, in *inputs, dir string) ([]*node, error)
}

func single(flags []string, cfg server.Config) func(*harness, *inputs, string) ([]*node, error) {
	return func(h *harness, in *inputs, _ string) ([]*node, error) {
		n, err := h.launch(0, flags, cfg, in.fullPath, in.full)
		if err != nil {
			return nil, err
		}
		return []*node{n}, nil
	}
}

var workloads = []workloadDef{
	{
		name:     "eval-mix",
		multiset: evalMultiset,
		start:    single([]string{"-cache", "-1"}, server.Config{CacheSize: -1}),
	},
	{
		name:     "hot-mix",
		multiset: hotMultiset,
		start:    single(nil, server.Config{}),
	},
	{
		name:     "live-mix",
		appender: true,
		multiset: evalMultiset,
		start: func(h *harness, in *inputs, dir string) ([]*node, error) {
			wal := filepath.Join(dir, "wal")
			if err := os.RemoveAll(wal); err != nil {
				return nil, err
			}
			n, err := h.launch(0, []string{"-ingest", "-wal-dir", wal, "-fsync", "always", "-cache", "-1"},
				server.Config{Ingest: true, WALDir: wal, CacheSize: -1}, in.basePath, in.base)
			if err != nil {
				return nil, err
			}
			return []*node{n}, nil
		},
	},
	{
		name:     "fanout-2w",
		multiset: evalMultiset,
		start: func(h *harness, in *inputs, _ string) ([]*node, error) {
			var workers []*node
			var urls []string
			for i := range workerPorts {
				n, err := h.launch(workerPorts[i], []string{"-worker"}, server.Config{WorkerMode: true}, in.fullPath, in.full)
				if err != nil {
					return nil, err
				}
				workers = append(workers, n)
				urls = append(urls, n.url)
			}
			coord, err := h.launch(0, []string{"-cluster-workers", strings.Join(urls, ","), "-cache", "-1"},
				server.Config{CacheSize: -1, Cluster: &cluster.Config{Workers: urls}}, in.fullPath, in.full)
			if err != nil {
				return nil, err
			}
			return append([]*node{coord}, workers...), nil
		},
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// cpuMillis is the process's user plus system CPU time from /proc/<pid>/stat,
// at the kernel's USER_HZ of 100 ticks per second.
func cpuMillis(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields count from after ")".
	rest := string(data[bytes.LastIndexByte(data, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat times", pid)
	}
	return (utime + stime) * 10, nil
}

// peakRSSMB is VmHWM from /proc/<pid>/status.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// sumOver adds a per-process figure over the distinct processes of a fleet.
func sumOver(fleet []*node, f func(pid int) (float64, error)) (float64, error) {
	seen := make(map[int]bool)
	total := 0.0
	for _, n := range fleet {
		if seen[n.pid] {
			continue
		}
		seen[n.pid] = true
		v, err := f(n.pid)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}
