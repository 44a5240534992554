.PHONY: all build test lint check bench bench-fastpath bench-parallel bench-prefilter bench-static bench-fleet trace-demo golden replay-golden diff-golden clean

all: build

build:
	dune build @all

test:
	dune runtest

# The metadata-soundness lint gate: every workload model must produce
# zero errors (warnings are hygiene), plain and with pre-resolution,
# which is what reaches lint's SCCP and taint checks (the CI job runs
# the same nine commands).
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

# The trap fast-path artifact: every Figure 3 / Table 7 run with the
# verdict cache on and off, cycle totals straight from the interpreter
# plus per-run registry snapshots (EXPERIMENTS.md).
bench-fastpath:
	dune exec bench/main.exe -- --json BENCH_trap_fastpath.json

# The sharded-monitor artifact: 8 NGINX tracees over 1/2/4/8 shards,
# modelled fields only, so regeneration is byte-identical (EXPERIMENTS.md).
bench-parallel:
	dune exec bench/main.exe -- --json-parallel BENCH_parallel_monitor.json

# The tiered-ablation artifact: off / prefilter-only / tiered on all
# three workloads plus the per-attack tier split (EXPERIMENTS.md).
bench-prefilter:
	dune exec bench/main.exe -- --json-prefilter BENCH_prefilter.json

# The static pre-resolution artifact: off / rank-only / full ablation
# with the SCCP + taint slot breakdown per workload (EXPERIMENTS.md).
bench-static:
	dune exec bench/main.exe -- --json-static BENCH_static_pre_resolution.json

# The fleet telemetry artifact: tail latency vs offered load over a
# heterogeneous 64-tracee fleet on the sharded pool (EXPERIMENTS.md).
bench-fleet:
	dune exec bench/main.exe -- --json-fleet BENCH_fleet.json

# Record an NGINX run with the flight recorder and summarise the trace
# (open nginx.trace.json in Perfetto / chrome://tracing).
trace-demo:
	dune exec bin/bastion_cli.exe -- run --app nginx --trace nginx.trace.json --metrics
	dune exec bin/bastion_cli.exe -- trace-summary nginx.trace.json

# Regenerate the golden-trace corpus: one small-scale benign run and
# one attack-matrix run per application, recorded with `--audit`.  The
# model is deterministic, so regeneration must be byte-identical to
# the checked-in traces (CI enforces this with `git diff`).
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
# (CI enforces it stays byte-identical with `git diff`).
diff-golden:
	dune build bin/bastion_cli.exe
	dune exec bin/bastion_cli.exe -- replay test/golden/nginx-benign.jsonl test/golden/sqlite-benign.jsonl test/golden/vsftpd-benign.jsonl test/golden/nginx-attack.jsonl test/golden/sqlite-attack.jsonl test/golden/vsftpd-attack.jsonl --against current --diff DIFF_replay_golden.json

clean:
	dune clean
