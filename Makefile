GO ?= go

.PHONY: all build test vet lint check race chaos fuzz cover serve-smoke serve-faults serve-tenants serve-resume bench-pairs

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs the in-tree invariant suite (cmd/t3dlint): the Split-C
# split-phase sync discipline, deterministic-replay rules, the
# deadline/partition/poison error taxonomy, and simulated-time-only
# cycle accounting. Exit 1 on any finding; waivers need a written
# //lint:allow <pass> <reason>. See DESIGN.md §11.
lint:
	$(GO) run ./cmd/t3dlint ./...

# check is the tier-1 gate: everything must build, vet and lint clean,
# and pass, then survive the randomized hard-fault soak.
check: build vet lint test chaos

# chaos is the hard-fault soak gate: randomized-seed permanent link and
# node failures injected into recoverable EM3D and sample-sort runs,
# which must complete bit-identical to the fault-free runs. The base
# seed is printed; replay a failure with CHAOS_BASE=<seed>, widen the
# sweep with CHAOS_SEEDS=<n>.
chaos:
	CHAOS=1 $(GO) test ./internal/chaos -count=1 -v -run TestChaosSoak

# fuzz is the wire-protocol smoke: short coverage-guided runs of the
# slot-classification, ack-control, and poison-wire fuzzers, which must
# never find a way for corrupted headers, sequence numbers, expiry
# stamps, congestion-echo bits, or poison verdicts to panic, mis-ack,
# inflate a window, or launder poisoned data into a clean ack.
fuzz:
	$(GO) test ./internal/am -run '^$$' -fuzz FuzzClassifySlot -fuzztime 10s
	$(GO) test ./internal/am -run '^$$' -fuzz FuzzAckControl -fuzztime 10s
	$(GO) test ./internal/am -run '^$$' -fuzz FuzzPoisonWire -fuzztime 10s
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzJournalRecord -fuzztime 10s
	$(GO) test ./internal/ckpt -run '^$$' -fuzz FuzzCheckpointHeader -fuzztime 10s

# cover runs the suite with coverage and prints the per-package summary;
# the profile lands in cover.out for `go tool cover -html=cover.out`.
cover:
	$(GO) test -coverprofile=cover.out -covermode=atomic ./...
	$(GO) tool cover -func=cover.out | tail -1

# race runs the suite under the race detector. Procs are coroutines that
# run one at a time, each touching the engine's state in turn, and the
# coroutine switches order those accesses, so this should stay silent; it
# guards the switches themselves (signals, timeouts, retransmits) and
# Shutdown's reaping of parked procs.
race:
	$(GO) test -race ./...

# serve-smoke is the end-to-end crash-safety gate for cmd/t3dserve: a
# job served over HTTP must match the batch digest, and a server
# SIGKILLed mid-job must replay the journaled job to that same digest
# after restart. See scripts/serve_smoke.sh.
serve-smoke:
	./scripts/serve_smoke.sh

# serve-faults is the host-storage brownout gate: the journal rides an
# injected-fault disk (internal/hostfs), EIO and ENOSPC brownouts must
# degrade the service to 503 + Retry-After while cached results keep
# flowing, a retrying t3dclient must ride the brownout out to the batch
# digest, and a SIGKILL + restart must serve every acknowledged result
# from the recovered cache. See scripts/serve_faults.sh.
serve-faults:
	./scripts/serve_faults.sh

# serve-tenants is the multi-tenant isolation gate: a noisy tenant past
# its quota must get 429 + its own Retry-After while a quiet tenant is
# admitted and completes to the batch digest, /statusz must blame the
# right tenant, the result cache must stay shared across tenants, and a
# SIGKILLed server must replay a quiet tenant's in-flight job under its
# tenant. See scripts/serve_tenants.sh.
serve-tenants:
	./scripts/serve_tenants.sh

# serve-resume is the durable-checkpoint gate on real binaries: a long
# checkpointed job's server is SIGKILLed after its first checkpoint
# lands, and the restarted server must resume the job from a checkpoint
# (not replay from scratch), finish it to the batch digest, and a
# watching t3dclient must report "resumed from epoch N". See
# scripts/serve_resume.sh.
serve-resume:
	./scripts/serve_resume.sh

# bench-pairs measures a speed change as ROADMAP.md asks of every speed
# claim: alternating pairs of bench/ runs, HEAD against the working tree,
# on consecutive fresh seeds, then bench's -compare. BENCH_WORKLOAD and
# BENCH_SEED are required, BENCH_PAIRS optional; see
# scripts/bench_pairs.sh. Results stay in .bench_build/pairs/.
bench-pairs:
	bash scripts/bench_pairs.sh $(if $(BENCH_WORKLOAD),--workload $(BENCH_WORKLOAD)) \
		$(if $(BENCH_SEED),--seed $(BENCH_SEED)) $(if $(BENCH_PAIRS),--pairs $(BENCH_PAIRS))
