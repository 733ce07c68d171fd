GO ?= go

# Coverage floor for the evaluation engine and the microbenchmark suite
# (make cover). Measured 76.9% when introduced; the gate trips if a change
# drops combined coverage below this.
COVER_MIN ?= 70

.PHONY: build test vet race fuzzseed inlinecheck lint cover check bench benchsmoke benchdiff benchdiffsmoke relsecsmoke lockstepsmoke taillatsmoke staticsmoke perfbenchtest clean

# Packages carrying the host-perf microbenchmarks (cache access, cpu issue
# loop, kernel syscall round-trip, app drive path, open-loop replay +
# digest, static verifier).
BENCH_PKGS = ./internal/cache/ ./internal/cpu/ ./internal/kernel/ ./internal/apps/ ./internal/loadgen/ ./internal/staticflow/

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# fuzzseed replays the checked-in fuzz seed corpus as regular tests
# (no -fuzz: that would explore; CI only replays known inputs).
fuzzseed:
	$(GO) test -run=Fuzz ./internal/kernel/ ./internal/cpu/ ./internal/loadgen/ ./internal/cache/

# inlinecheck fails if a hot-path function stops being inlinable. The L0
# probes sit close to the compiler's budget of 80 (l0DataFast at 79), so an
# edit that pushes one over costs host time and breaks no test. Functions
# that were never inlinable (Cache.Access, cost 127: the call to accessScan
# alone costs 57) are not listed.
INLINE_FUNCS = '(*Cache).CommitHit' '(*Cache).GenAt' '(*Core).l0DataFast' '(*Core).l0Inst' '(*Core).fetchTiming'

inlinecheck:
	@out=$$($(GO) build -gcflags=-m ./internal/cache ./internal/cpu 2>&1) || { echo "$$out"; exit 1; }; \
	fail=0; for f in $(INLINE_FUNCS); do \
		echo "$$out" | grep -qF "can inline $$f" || { echo "inlinecheck: $$f is no longer inlinable"; fail=1; }; \
	done; [ $$fail = 0 ] && echo "inlinecheck: ok"

# lint runs the project's own go/analysis suite (determinism, errwrap,
# specgate — see DESIGN.md §8). Exit 1 means an unannotated finding;
# suppress intentional ones with `//lint:allow <analyzer> -- <reason>`.
lint:
	$(GO) run ./cmd/perspective-lint ./...

# cover enforces COVER_MIN over the harness + lebench packages.
cover:
	$(GO) test -count=1 -coverprofile=cover.out ./internal/harness/ ./internal/lebench/
	@$(GO) tool cover -func=cover.out | awk -v min=$(COVER_MIN) \
		'/^total:/ { sub(/%/, "", $$3); printf "coverage: %s%% (floor %s%%)\n", $$3, min; \
		if ($$3+0 < min+0) { print "FAIL: coverage below floor"; exit 1 } }'

# check is the CI gate: vet + the project lint suite + race-enabled tests
# + fuzz seed corpus + a one-iteration benchmark smoke run (guards the
# bench layer against bit-rot without paying for real measurement) + a
# deterministic benchmark-coverage diff against the committed perf
# trajectory + end-to-end relative-security, tail-latency, and static-
# verifier smokes + the benchmark-of-record module's own tests.
check: vet lint inlinecheck race fuzzseed lockstepsmoke benchsmoke benchdiffsmoke relsecsmoke taillatsmoke staticsmoke perfbenchtest

# perfbenchtest runs the tests of the perfbench module (the benchmark of
# record, a separate Go module): they pin per-test LEBench cycles to
# harness.Fig92Scheme and same-seed digests, so a simulator change that
# would silently shift the benchmark fails here. About 40 s, offline.
perfbenchtest:
	cd perfbench && $(GO) test ./...

# lockstepsmoke runs the bounded differential oracle at machine level: the
# production executor against the memo-free reference interpreter over one
# scheme, a LEBench slice, one census gadget, and one user-mode PoC byte,
# comparing per-committed-instruction state digests and the final cache
# hierarchies (DESIGN.md §10).
lockstepsmoke:
	$(GO) test -count=1 -run='^TestLockstep(Smoke|UserMode)$$' ./internal/harness/

# relsecsmoke runs the relative-security experiment end-to-end through the
# CLI and asserts its two load-bearing verdicts: every sound scheme is
# trace-equivalent over the census, and the repair loop converges.
relsecsmoke:
	$(GO) run ./cmd/perspective-sim -exp relsec > /tmp/relsec.out
	@grep -q 'converged: census clean' /tmp/relsec.out
	@grep -c 'relatively secure' /tmp/relsec.out | grep -qx 4
	@grep -q 'leaks' /tmp/relsec.out
	@rm -f /tmp/relsec.out
	@echo relsecsmoke: ok

# taillatsmoke runs the open-loop fleet experiment end-to-end through the
# CLI at a reduced request budget and asserts the paired-baseline invariant:
# every UNSAFE row reports overhead exactly 1.00, and no cell fails.
taillatsmoke:
	$(GO) run ./cmd/perspective-sim -exp taillats -requests 50000 > /tmp/taillats.out
	@grep -c '^[a-z].*UNSAFE .*1\.00    1\.00    1\.00$$' /tmp/taillats.out | grep -qx 4
	@! grep -q '!!' /tmp/taillats.out
	@rm -f /tmp/taillats.out
	@echo taillatsmoke: ok

# staticsmoke runs the static speculative-leak verifier end-to-end through
# the CLI and asserts its three load-bearing verdicts: the census soundness
# invariant holds, the relsec witness is statically flagged, and the
# synthesized fence set passes the differential oracle trace-equal.
staticsmoke:
	$(GO) run ./cmd/perspective-sim -exp staticflow > /tmp/staticflow.out
	@grep -q 'soundness HOLDS' /tmp/staticflow.out
	@grep -q 'statically flagged: YES' /tmp/staticflow.out
	@grep -q 'trace-equal under the static fences' /tmp/staticflow.out
	@rm -f /tmp/staticflow.out
	@echo staticsmoke: ok

# bench produces BENCH_hostperf.json: micro ns/op per hot function plus an
# end-to-end `-exp all` cells/sec and simulated-MIPS measurement.
bench:
	$(GO) run ./cmd/benchreport -out BENCH_hostperf.json

benchsmoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x $(BENCH_PKGS)

# benchdiff re-measures the micro benchmarks and fails on a >25% ns/op
# regression against the committed BENCH_hostperf.json. Full measurement
# (~1 min); run before merging perf-sensitive changes.
benchdiff:
	$(GO) run ./cmd/benchreport -diff BENCH_hostperf.json

# benchdiffsmoke is the `make check` form: a fast run that only verifies
# every committed benchmark still exists (timing at -benchtime=10x is too
# noisy to gate on, so it doesn't).
benchdiffsmoke:
	$(GO) run ./cmd/benchreport -diff BENCH_hostperf.json -benchtime 10x -diff-names-only

clean:
	rm -f perspective-sim.state.json cover.out BENCH_hostperf.json
	$(GO) clean ./...
