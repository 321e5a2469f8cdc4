# Build/verification entry points. `make check` is the one gate used
# before merging: vet, the nocpu-lint analyzer suite, build, every test
# under the race detector (once, in shuffled order), a short fuzz run of
# the wire-format decoder, of the virtqueue endpoint, of the SSD's file
# service, of the client-request key view and of the fabric's ring
# transition, and the smoke run of the nested benchmark module. The
# per-experiment targets below (chaos, overload, fabric, reconcile,
# tenancy, partition) are `-run` aliases for working on one area; each
# is a strict subset of `race`, so `check` does not run them again.
# `make bench-full` is the whole benchmark (~1 min, sized by host time, so
# it is not part of `check`): run it before quoting a benchmark number.
# `make allocs` prints what every allocation guard measured.
# `make lines` prints the non-test line counts the ROADMAP's line budgets
# are stated in; quote a budget from it and from nothing else.
# `make funcs` lists every struct field of func type with its role.
# `make reach` lists the functions only tests reach, then the statements
# only tests reach, counted per file and in total.

GO ?= go

.PHONY: build test vet lint allows race fuzz chaos overload fabric reconcile tenancy partition bench-smoke bench-full check bench allocs tables lines funcs reach

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Custom determinism/decentralization/wire-compat analyzers
# (internal/lint), run via the go vet -vettool protocol. See
# internal/lint/lint.go for the rules and the //lint:allow escape
# hatch. After an intentional append-only wire change, regenerate the
# schema baseline with NOCPU_REGEN_WIRELOCK=1 make lint and commit
# internal/msg/wire.lock.
lint:
	$(GO) build -o bin/nocpu-lint ./cmd/nocpu-lint
	$(GO) vet -vettool=bin/nocpu-lint ./...

# Inventory of every //lint:allow suppression in the tree (file:line,
# rule, mandatory reason) — the whole exception surface in one listing.
allows:
	$(GO) build -o bin/nocpu-lint ./cmd/nocpu-lint
	./bin/nocpu-lint -allows .

# -shuffle=on randomises test order inside each package (the seed is
# printed on failure), so a test that leans on state another one left
# behind fails here instead of passing by accident.
race:
	$(GO) test -race -shuffle=on ./...

# Fuzz the bus wire-format decoder for 10s (regression corpus under
# internal/msg/testdata/fuzz is always replayed by plain `go test`), then
# the per-kind round-trip target for 5s: it builds a valid header around
# the fuzzed body, so every kind's decoder is reached at once. Then 5s of
# the virtqueue endpoint's state machine against whatever a hostile
# driver could leave in the descriptor table and the avail ring, and 5s of
# the SSD's file service against whatever a peer could put in a request
# cell (any op, offset and length; every request answered once, the
# volume's pages conserved). Then 5s of the client-request key view a
# router routes on against the full decode the serving machine runs:
# they refuse the same bytes and agree on every key. Then 5s of one
# machine's ring transition under any schedule of prepare, commit and
# abort phases: the ring version never goes back, and a staged ring's
# transfer always drains.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzDecode -fuzztime=10s ./internal/msg
	$(GO) test -run=^$$ -fuzz=FuzzRoundTrip -fuzztime=5s ./internal/msg
	$(GO) test -run=^$$ -fuzz=FuzzEndpointRing -fuzztime=5s ./internal/virtio
	$(GO) test -run=^$$ -fuzz=FuzzFileService -fuzztime=5s ./internal/smartssd
	$(GO) test -run=^$$ -fuzz=FuzzRequestKey -fuzztime=5s ./internal/kvs
	$(GO) test -run=^$$ -fuzz=FuzzRingTransition -fuzztime=5s ./internal/fabric

# Subsets of `race`, for humans. Seeds are fixed in the tests, so a
# failure reproduces bit-for-bit.
#
# chaos: the E15 crash schedules on every machine flavor, the campaign
# client's unit tests, and the chaos ledger and plan-compile unit tests.
chaos:
	$(GO) test -race -run 'TestE15|TestCampaignClient' ./internal/exp
	$(GO) test -race ./internal/chaos

# overload: the E16 open-loop load ramps and the overload-harness units.
overload:
	$(GO) test -race -run 'TestE16' ./internal/exp
	$(GO) test -race ./internal/overload

# fabric: the rack package's suite (golden-trace determinism, ring
# properties, leases and partitions), the whole-machine-kill mechanism
# tests (TestChaos*, which live next to the campaign client in
# internal/exp) and the E17 campaigns.
fabric:
	$(GO) test -race ./internal/fabric
	$(GO) test -race -run 'TestE17|TestChaos' ./internal/exp

# reconcile: the fleet reconciler's units plus the E19 campaigns (kill,
# rolling upgrade, same-frame double kill).
reconcile:
	$(GO) test -race ./internal/reconcile
	$(GO) test -race -run 'TestE19' ./internal/exp

# tenancy: the tenant registry/ledger and seeded-adversary units plus the
# E20 attack matrix (every cell must audit 0 S1 / 0 S2 / 0 S3).
tenancy:
	$(GO) test -race ./internal/tenant ./internal/adversary
	$(GO) test -race -run 'TestE20' ./internal/exp

# partition: the linearizability checker's units, the fabric
# lease/partition/fencing tests, the reconciler's gray-failure
# regressions, and the E21 split-brain matrix.
partition:
	$(GO) test -race ./internal/linearize
	$(GO) test -race -run 'TestTransportFailure|TestOneWayCut|TestMinorityPartition|TestFailSlow|TestTakeoverFence|TestFlappingLink|TestPartitionedActor' ./internal/fabric ./internal/reconcile
	$(GO) test -race -run 'TestE21' ./internal/exp

# bench/ is its own module, so `go test ./...` here never enters it and
# a change to a function it calls would surface only when the benchmark
# next builds. This builds it against the tree and runs its smoke, schema
# and unit tests (~5s).
bench-smoke:
	$(GO) test -C bench ./...

# The benchmark itself: all five workloads at full work, seven
# repetitions each, the traced run and every probe (~1 min), written to
# bench/out. `check` runs only the smoke above, and that is how the full
# run once broke unseen: a probe sized by host speed ran its fixture out
# of page-table frames on a fast host.
bench-full:
	$(GO) run -C bench . -full -out out

check: vet lint build race fuzz bench-smoke

# Every Go benchmark in the tree at a fixed iteration count: the root
# package's experiment benchmarks and the per-layer ones that sit next to
# their packages (sim, msg, physmem, iommu, interconnect, virtio, bus,
# smartssd, smartnic, kvs, fabric); the control plane's are
# BenchmarkRoute in bus and BenchmarkControlCall in smartnic.
bench:
	$(GO) test -run=^$$ -bench . -benchmem -benchtime=100x ./...

# Every allocation guard (the Test*Allocs tests, which plain `go test`
# runs too) with -v: each logs the count it measured next to its bound, so
# a change can quote its parent's counts and its own from one command.
allocs:
	$(GO) test -count=1 -run 'Allocs$$' -v ./...

# Regenerate all experiment tables (E1-E21).
tables:
	$(GO) run ./cmd/nocpu-bench

# Non-test Go lines (`_test.go` and testdata excluded) of each group the
# ROADMAP budgets, then of all of internal/ and cmd/. The fabric rows
# hold the router split to its budgets: the package, the hub, and the
# package's largest file, named. The file-path row counts the SSD's side
# of a file op and both of the NIC's clients (`fileclient.go`: the
# peer-to-peer one and the kernel-mediated one); the open is in
# runtime.go, under the smartnic row.
lines:
	@count() { find "$$@" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec cat {} + | wc -l; }; \
	printf '%-42s %6d\n' 'fabric+bus+smartnic+kvs' $$(count internal/fabric internal/bus internal/smartnic internal/kvs); \
	printf '%-42s %6d\n' 'internal/fabric' $$(count internal/fabric); \
	printf '%-42s %6d\n' 'fabric/router.go' $$(count internal/fabric/router.go); \
	find internal/fabric -name '*.go' ! -name '*_test.go' -exec wc -l {} + | grep -v ' total$$' | sort -n | tail -1 | \
		awk '{ sub(".*/", "", $$2); printf "%-42s %6d\n", "largest fabric file (" $$2 ")", $$1 }'; \
	printf '%-42s %6d\n' 'internal/smartnic' $$(count internal/smartnic); \
	printf '%-42s %6d\n' 'internal/kvs' $$(count internal/kvs); \
	printf '%-42s %6d\n' 'file path: smartssd+virtio+fileclient.go' $$(count internal/smartssd internal/virtio internal/smartnic/fileclient.go); \
	printf '%-42s %6d\n' 'centralos.go' $$(count internal/centralos/centralos.go); \
	printf '%-42s %6d\n' 'memctrl+centralos.go' $$(count internal/memctrl internal/centralos/centralos.go); \
	printf '%-42s %6d\n' 'device+memctrl+centralos.go' $$(count internal/device internal/memctrl internal/centralos/centralos.go); \
	printf '%-42s %6d\n' 'sim engine+server' $$(count internal/sim/engine.go internal/sim/server.go); \
	printf '%-42s %6d\n' 'msg+lint/wireproto.go' $$(count internal/msg internal/lint/wireproto.go); \
	printf '%-42s %6d\n' 'lint+cmd/nocpu-lint' $$(count internal/lint cmd/nocpu-lint); \
	printf '%-42s %6d\n' 'exp+chaos+overload+faultinject+netsim' $$(count internal/exp internal/chaos internal/overload internal/faultinject internal/netsim); \
	printf '%-42s %6d\n' 'internal/+cmd/' $$(count internal cmd)

# Every struct field of func type outside internal/lint, with its role
# from DESIGN.md's "What still holds a func" table, and the library's and
# the experiment harness's counts. The census test (plain `go test` runs
# it too) fails on a field the table does not list, or a listed one gone.
funcs:
	$(GO) test -count=1 -run '^TestFuncFieldCensus$$' -v ./internal/lint

# The functions of internal/ (the linter aside) that only tests reach: at
# 0.0% both in the table goldens and examples and in the benchmark's own
# tests, yet run by the full suite. Each is a candidate for deletion or a
# probe a test needs; a code that no non-test code sends does not show
# here, since its receiving arm runs in the full suite. Then the same at
# statement level, from the same three profiles: per file, the statements
# of the blocks the full suite runs and neither the tables and examples
# nor the benchmark's tests do, and their total. A -coverpkg profile lists
# a block once per test binary, so a block counts as run if any of its
# entries is nonzero. The profiles go to bin/, with the test output next
# to them.
reach:
	@mkdir -p bin
	$(GO) test -count=1 -coverpkg=nocpu/internal/... -coverprofile=bin/reach-all.out ./... > bin/reach-all.log
	$(GO) test -count=1 -coverpkg=nocpu/internal/... -coverprofile=bin/reach-tables.out -run 'TestTablesGolden|Example' ./internal/exp ./examples/... > bin/reach-tables.log
	$(GO) test -C bench -count=1 -coverpkg=nocpu/internal/... -coverprofile=$(CURDIR)/bin/reach-bench.out ./... > bin/reach-bench.log
	@for p in all tables bench; do \
		$(GO) tool cover -func=bin/reach-$$p.out | awk '$$1 !~ /internal\/lint\// && $$1 != "total:" { print $$1 $$2, $$3 }' | LC_ALL=C sort -k1,1 > bin/reach-$$p.txt; \
	done; \
	LC_ALL=C join bin/reach-tables.txt bin/reach-bench.txt | LC_ALL=C join - bin/reach-all.txt | \
		awk '$$2 == "0.0%" && $$3 == "0.0%" && $$4 != "0.0%" { print $$1, $$4 }'
	@echo; awk 'FNR == 1 { p++; next } $$1 !~ /internal\/lint\// { n[$$1] = $$2; if ($$3 > 0) run[p, $$1] = 1 } \
		END { for (b in n) if (run[1, b] && !run[2, b] && !run[3, b]) { f = b; sub(/:.*/, "", f); s[f] += n[b]; t += n[b] } \
			for (f in s) print f, s[f] | "LC_ALL=C sort"; close("LC_ALL=C sort"); print "total:", t + 0 }' \
		bin/reach-all.out bin/reach-tables.out bin/reach-bench.out
