# Development entry points. Everything is plain `go` — the Makefile only
# names the common invocations.

GO ?= go

.PHONY: all build vet test test-race cover loc unreached bench cluster-smoke ingest-smoke experiments examples fuzz clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# Non-blank, non-comment, non-test Go lines for every package of the module,
# one row each plus a total — run it at two commits to check a "this PR
# shrinks the code" claim.
loc:
	@total=0; for d in $$($(GO) list -f '{{.Dir}}' ./...); do \
		files=$$(ls $$d/*.go | grep -v _test.go); [ -n "$$files" ] || continue; \
		n=$$(cat $$files | grep -vcE '^[[:space:]]*(//.*)?$$'); \
		printf '%-28s %6d\n' .$${d#$(CURDIR)} $$n; total=$$((total+n)); \
	done; printf '%-28s %6d\n' total $$total

# Package-level declarations no binary can reach (roots: every main and init,
# the root package's exported API and the methods of the types it aliases;
# tests are not roots). Prints one line per finding and fails on any; the
# script's allow-list names what stays for the tests' sake, with the reason.
unreached:
	$(GO) run scripts/unreached.go

# The testing.B series (one family per paper artifact; see bench_test.go).
bench:
	$(GO) test -bench=. -benchmem ./...

# Multi-process cluster smoke: coordinator + 3 workers on loopback, one
# killed mid-run (206 + completeness), rejoined (digest-equal 200). CI runs
# this on every push.
cluster-smoke:
	./scripts/cluster_smoke.sh

# Crash-recovery smoke: a live-ingest server is SIGKILLed mid-append and
# restarted on the same WAL; the recovered state must answer digest-equal
# to a control server fed exactly the durable prefix. CI runs this on every
# push.
ingest-smoke:
	./scripts/ingest_crash_smoke.sh

# Regenerate the EXPERIMENTS.md tables (E1-E12).
experiments:
	$(GO) run ./cmd/wlq-bench

experiments-quick:
	$(GO) run ./cmd/wlq-bench -quick

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/clinic
	$(GO) run ./examples/audit
	$(GO) run ./examples/monitor

# Short fuzzing pass over the parsers, the codecs, the worker reply reader,
# the columnar store and the evaluator's entry points.
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/core/pattern/
	$(GO) test -fuzz=FuzzDecodeText -fuzztime=30s ./internal/logio/
	$(GO) test -fuzz=FuzzDecodeJSONL -fuzztime=30s ./internal/logio/
	$(GO) test -fuzz=FuzzScanSegment -fuzztime=30s ./internal/wal/
	$(GO) test -fuzz=FuzzStoreMatchesIndex -fuzztime=30s ./internal/colstore/
	$(GO) test -fuzz=FuzzEntryPointsAgree -fuzztime=3s -run XXX ./internal/core/eval/
	$(GO) test -fuzz=FuzzIncidentCodec -fuzztime=30s -run XXX ./internal/cluster/
	$(GO) test -fuzz=FuzzWorkerReply -fuzztime=30s -run XXX ./internal/cluster/

clean:
	$(GO) clean ./...
