.PHONY: all build check test bench fuzz-smoke serve-smoke sim-smoke \
	trace-demo clean fmt

all: build

build:
	dune build

# Tier-1 gate: everything compiles and the full test suite passes.
check:
	dune build && dune runtest

test: check

# The performance suite (see BENCHMARK.json and perfsuite/README.md).
# The paper's tables and figures are `dune exec bench/main.exe
# [EXPERIMENT]`.
bench:
	sh perfsuite/run.sh

# Bounded in-process serve smoke: fixed seed, two domains, exits
# non-zero unless manual, repaired and optimized agree on every
# verdict, the final count and the store digest.
serve-smoke:
	HIPPO_JOBS=2 dune exec bin/hippocrates_cli.exe -- serve --inproc \
	  --smoke --seed 42 --records 2000 --ops 3000 --workers 4 --jobs 2

# Deterministic simulation smoke: standard and chaos mode on the
# hand-hardened redis (each must be clean, 0 exit), chaos on repaired
# P-CLHT in lockstep with its buggy baseline (two restart chains on one
# domain; must be clean, 0 exit) and chaos on P-CLHT's buggy manual
# port (must detect, so the exit code is inverted); every fleet runs at
# two domains with reproducers saved under sim-smoke/.
sim-smoke:
	HIPPO_JOBS=2 dune exec bin/hippocrates_cli.exe -- sim --app redis \
	  --variant manual --mode standard --smoke --seed 42 --jobs 2 \
	  --out sim-smoke
	HIPPO_JOBS=2 dune exec bin/hippocrates_cli.exe -- sim --app redis \
	  --variant manual --mode chaos --smoke --seed 42 --jobs 2 \
	  --out sim-smoke
	HIPPO_JOBS=2 dune exec bin/hippocrates_cli.exe -- sim --app pclht \
	  --variant repaired --mode chaos --smoke --seed 42 --jobs 2 \
	  --out sim-smoke
	! HIPPO_JOBS=2 dune exec bin/hippocrates_cli.exe -- sim --app pclht \
	  --variant manual --mode chaos --smoke --seed 42 --jobs 2 \
	  --out sim-smoke

# Deterministic 60-second-class fuzz smoke: fixed seed and exec budget,
# exits non-zero on any oracle violation, saves corpus + shrunk
# reproducers under fuzz-smoke/.
fuzz-smoke:
	dune exec bin/hippocrates_cli.exe -- fuzz --smoke --seed 42 --jobs 2 \
	  --corpus fuzz-smoke

# One corpus case end to end with engine tracing: JSON-lines events to
# trace-demo.jsonl, per-phase timing breakdown on stderr.
trace-demo:
	dune exec bin/hippocrates_cli.exe -- fix examples/ir/demo.pmir \
	  --entry main --trace-out trace-demo.jsonl -o /dev/null
	@echo "--- trace-demo.jsonl ---"
	@cat trace-demo.jsonl

clean:
	dune clean

fmt:
	dune fmt
