.PHONY: all build test lint check bench artifacts trace-demo golden replay-golden diff-golden clean

all: build

build:
	dune build @all

test:
	dune runtest

# The metadata-soundness lint gate: every workload model must produce
# zero errors (warnings are hygiene), plain and with pre-resolution,
# which is what reaches lint's SCCP and taint checks (CI runs this
# target).
lint:
	dune exec bin/bastion_cli.exe -- lint --app nginx
	dune exec bin/bastion_cli.exe -- lint --app sqlite
	dune exec bin/bastion_cli.exe -- lint --app vsftpd
	dune exec bin/bastion_cli.exe -- lint --app nginx --pre-resolve
	dune exec bin/bastion_cli.exe -- lint --app sqlite --pre-resolve
	dune exec bin/bastion_cli.exe -- lint --app vsftpd --pre-resolve
	dune exec bin/bastion_cli.exe -- lint --app nginx --fs --pre-resolve
	dune exec bin/bastion_cli.exe -- lint --app sqlite --fs --pre-resolve
	dune exec bin/bastion_cli.exe -- lint --app vsftpd --fs --pre-resolve

# Build everything, then run the lint gate.
check: lint
	dune build @check

bench:
	dune exec bench/main.exe

# Regenerate every committed artifact: the five BENCH_*.json files
# (bench/main.ml lists them), then the diff-replay oracle, then the
# golden corpus.  diff-golden must run before golden: it replays the
# committed corpus against today's compile pass, and re-recording first
# would make it replay today's.  Everything is modelled, so on a clean
# tree this changes nothing (CI runs it, then `git diff --exit-code`).
# `dune runtest` checks each BENCH artifact's invariants.
artifacts:
	dune exec bench/main.exe -- --emit
	$(MAKE) diff-golden
	$(MAKE) golden

# Record an NGINX run with the flight recorder and summarise the trace
# (open nginx.trace.json in Perfetto / chrome://tracing).
trace-demo:
	dune exec bin/bastion_cli.exe -- run --app nginx --trace nginx.trace.json --metrics
	dune exec bin/bastion_cli.exe -- trace-summary nginx.trace.json

# Regenerate the golden-trace corpus: one small-scale benign run and
# one attack-matrix run per application, recorded with `--audit`.  The
# model is deterministic, so regeneration must be byte-identical to
# the checked-in traces (`make artifacts` re-records them).
golden:
	dune build bin/bastion_cli.exe
	dune exec bin/bastion_cli.exe -- run --app nginx --scale small --defense full --audit test/golden/nginx-benign.jsonl
	dune exec bin/bastion_cli.exe -- run --app sqlite --scale small --defense full --audit test/golden/sqlite-benign.jsonl
	dune exec bin/bastion_cli.exe -- run --app vsftpd --scale small --defense full --audit test/golden/vsftpd-benign.jsonl
	dune exec bin/bastion_cli.exe -- attack --id cve-2013-2028 --config full --audit test/golden/nginx-attack.jsonl
	dune exec bin/bastion_cli.exe -- attack --id rop-mprotect-sqlite-1 --config full --audit test/golden/sqlite-attack.jsonl
	dune exec bin/bastion_cli.exe -- attack --id rop-exec-daemon --config full --audit test/golden/vsftpd-attack.jsonl

# Replay every checked-in golden trace strictly; exits non-zero on any
# divergence (the offline re-verification gate).
replay-golden:
	dune build bin/bastion_cli.exe
	dune exec bin/bastion_cli.exe -- replay test/golden/*.jsonl --strict

# Differentially replay the whole golden corpus against the in-tree
# compile pass: the regression oracle.  Exits non-zero on any verdict
# flip or context move and writes the committed "what moved" artifact
# (`make artifacts` regenerates it).
diff-golden:
	dune build bin/bastion_cli.exe
	dune exec bin/bastion_cli.exe -- replay test/golden/nginx-benign.jsonl test/golden/sqlite-benign.jsonl test/golden/vsftpd-benign.jsonl test/golden/nginx-attack.jsonl test/golden/sqlite-attack.jsonl test/golden/vsftpd-attack.jsonl --against current --diff DIFF_replay_golden.json

clean:
	dune clean
