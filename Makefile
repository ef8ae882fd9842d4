all: build

build:
	dune build

test:
	dune runtest

# The whole gate in one shot: compile, run the tier-1 test suite, hold
# the driver corpus to the static checks, run the hostile-driver
# campaign against its acceptance gate, verify the XPC fast path
# against the committed trajectory, explore the decaf-check
# episode catalog at full depth, and self-test the repo benchmark.
check: build test lint campaign-malicious bench-check bench-regen-check soak explore perfbench-check

# Exhaustive schedule exploration (DPOR) of the decaf-check episode
# catalog at full depth, with the dynamic lock-acquisition order and
# the static/dynamic cross-check; fails on any counterexample. The
# reduced-depth pass runs inside `dune runtest` as @check-smoke.
explore:
	dune exec bin/decafctl.exe -- explore --lock-order --lock-diff

# The fault-injection campaign (buggy drivers: Table "no panics" row).
campaign:
	dune exec bin/experiments.exe -- campaign

# The adversarial campaign (hostile drivers: forged handles, fuzzed
# fields, forged acks, queue floods). Renders the trial table and its
# acceptance line; the same gate runs in `dune runtest` as
# test_maliciouscampaign.
campaign-malicious:
	dune exec bin/experiments.exe -- campaign-malicious

# Fail if the XPC fast path regressed against the committed trajectory:
# >10% on crossings/bytes or >5% on virtual-time throughput per
# (scenario, config) point (also runs as part of `dune runtest`).
bench-check:
	dune build @bench-smoke

# Fail if regenerating either committed trajectory changes one byte
# (~5 s). The 10%/5% gates above compare only some columns (not
# shards_used, for one); this catches every other drift, including a
# point that reads differently depending on what ran before it.
bench-regen-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	dune exec bench/main.exe -- json $$tmp/BENCH_xpc.json > /dev/null && \
	dune exec bench/main.exe -- soak-json $$tmp/BENCH_soak.json > /dev/null && \
	diff -u BENCH_xpc.json $$tmp/BENCH_xpc.json && \
	diff -u BENCH_soak.json $$tmp/BENCH_soak.json && \
	echo "bench-regen-check: BENCH_xpc.json and BENCH_soak.json regenerate byte for byte"

# Regenerate the committed trajectory after a deliberate retuning and
# show what changed against the committed file.
bench-json:
	dune exec bench/main.exe -- json BENCH_xpc.json.new
	-diff -u BENCH_xpc.json BENCH_xpc.json.new
	mv BENCH_xpc.json.new BENCH_xpc.json

bench:
	dune exec bench/main.exe

# The short deterministic soak: re-run the mixed-traffic soak at the
# committed BENCH_soak.json scale and gate on p99 latency per event
# path, zero audio deadline misses in the fault-free phase, and zero
# leaked tracker entries / kmalloc bytes at quiescence (also runs as
# part of `dune runtest`).
soak-smoke:
	dune build @soak-smoke

# The full-length soak: same gates at 10x the committed virtual
# duration (the percentiles print; only the miss/leak gates apply,
# since the committed file is measured at the smoke scale).
soak:
	dune exec bin/decafctl.exe -- soak --duration-ms 10000

# Regenerate the committed soak trajectory after a deliberate
# cost-model retuning and show what changed. To land the retuning and
# the file update in separate steps, run the gate once with
# DECAF_SOAK_WAIVE=1 (skips only the p99 comparison; the deadline-miss
# and leak gates always hold).
soak-json:
	dune exec bench/main.exe -- soak-json BENCH_soak.json.new
	-diff -u BENCH_soak.json BENCH_soak.json.new
	mv BENCH_soak.json.new BENCH_soak.json

# Static discipline checks over the five bundled driver sources; fails
# on any unwaived violation or stale waiver (the same gate runs inside
# `dune runtest` as the lint "corpus clean" test).
lint:
	dune exec bin/driverslicer.exe -- decaf-lint

# The repo benchmark's self-test at a tiny scale (~2 s): traced and
# untraced rounds agree, seeds matter, every per-layer row is measured,
# and the metric names match BENCHMARK.json (see perfbench/README.md).
perfbench-check:
	python3 perfbench/run.py --self-test

# Flat CPU profile of one benchmark workload, e.g. `make profile
# W=stream`: perfbench/main.exe runs under the pcprof PC sampler
# (tools/pcprof/README.md) and the top symbols print by self time. Not
# part of `check`: samples are not deterministic.
W ?= stream
profile:
	dune build ./perfbench/main.exe
	mkdir -p .pcprof
	cc -O2 -shared -fPIC -o .pcprof/pcprof.so tools/pcprof/pcprof.c -lrt
	PCPROF_OUT=.pcprof/$(W).out LD_PRELOAD=$(CURDIR)/.pcprof/pcprof.so \
	  ./_build/default/perfbench/main.exe --workload $(W) --seed 1 \
	  --seconds 10 --trace 0 > /dev/null
	python3 tools/pcprof/pcprof.py .pcprof/$(W).out

clean:
	dune clean

.PHONY: all build test check bench-check bench-regen-check bench-json bench soak-smoke soak soak-json lint explore perfbench-check profile clean
