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

# Fuzzing pass over every fuzz target: the parsers, the log importers, the
# codecs, the worker reply reader, the Definition 2 check, the monitor's
# batches, the columnar store and the evaluator's entry points, FUZZTIME each
# (CI: make fuzz FUZZTIME=3s). Every target runs; the pass then fails, naming
# each target that failed. A target its package does not define is a failure
# too: `go test -fuzz` finds nothing to fuzz there and passes.
FUZZTIME ?= 30s

FUZZ_TARGETS = \
	./internal/core/pattern/:FuzzParse \
	./internal/core/pattern/:FuzzPostfix \
	./internal/logio/:FuzzDecodeText \
	./internal/logio/:FuzzDecodeJSONL \
	./internal/logio/:FuzzDecodeRecord \
	./internal/logio/:FuzzImportCSV \
	./internal/logio/:FuzzImportXES \
	./internal/logio/:FuzzParseValue \
	./internal/wal/:FuzzScanSegment \
	./internal/wlog/:FuzzCheck \
	./internal/stream/:FuzzMonitorBatches \
	./internal/colstore/:FuzzStoreMatchesIndex \
	./internal/core/eval/:FuzzEntryPointsAgree \
	./internal/core/incident/:FuzzIncidentCodec \
	./internal/cluster/:FuzzWorkerReply

fuzz:
	@failed=; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; name=$${t##*:}; \
		echo "fuzz $$name in $$pkg"; \
		if ! $(GO) test -list "^$$name\$$" $$pkg | grep -qx "$$name"; then \
			echo "no fuzz target $$name in $$pkg"; failed="$$failed $$pkg:$$name"; continue; \
		fi; \
		$(GO) test -fuzz="^$$name\$$" -fuzztime=$(FUZZTIME) -run XXX $$pkg || failed="$$failed $$pkg:$$name"; \
	done; \
	if [ -n "$$failed" ]; then echo "make fuzz: failed:$$failed"; exit 1; fi

clean:
	$(GO) clean ./...
