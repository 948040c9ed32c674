GO ?= go

.PHONY: build test race vet lint lint-baseline check profile

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-enabled run of the full suite; the parallel campaign engine, sweep
# fan-out, and cross-validation pool are exercised under the race detector.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint runs the libra-lint analyzer suite (determinism, noalloc, clocksep,
# dbunits, configmut, floatreduce — see DESIGN.md "Static analysis & enforced
# invariants"). Reviewed findings recorded in lint.baseline are dropped;
# regenerate it with `make lint-baseline` only after review.
lint:
	$(GO) run ./cmd/libra-lint -baseline lint.baseline ./...

# lint-baseline snapshots the current findings into lint.baseline for review.
lint-baseline:
	$(GO) run ./cmd/libra-lint -write-baseline lint.baseline ./...

# check is the pre-merge gate: static analysis (vet + libra-lint) plus the
# race-enabled suite.
check: vet lint race

# profile captures CPU and heap profiles of the Table 1 benchmark (the
# campaign engine's hot path) and prints the top consumers of each.
profile:
	$(GO) test -run '^$$' -bench 'Table1' -benchtime 1x \
		-cpuprofile cpu.prof -memprofile mem.prof .
	$(GO) tool pprof -top -nodecount 15 cpu.prof
	$(GO) tool pprof -top -nodecount 15 -sample_index=alloc_space mem.prof
