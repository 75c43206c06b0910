.PHONY: all build test check bench bench-solver bench-merge \
  bench-staticrace bench-resume clean

all: build

build:
	dune build

test:
	dune runtest

# Tier-1 verification plus these smokes, in order:
# - parallel --quick: a shared-frontier run on two drivers (work
#   stealing and the shared query cache end to end);
# - chaos --quick: injected worker crashes, solver exhaustions and
#   memory pressure leave the bug sets unchanged;
# - merge --quick: fusing states at post-dominators leaves the bug sets
#   unchanged while collapsing the deep-loop driver's frontier;
# - staticrace --quick: the lockset/IRQL and race rules fire on the
#   seeded corpus, stay silent on every fixed variant, and at least one
#   race warning is confirmed by directed symbolic execution;
# - resume --quick: a checkpoint/resume and warm-start parity run;
# - kill-resume: a real SIGKILL mid-exploration, then `ddt_cli resume`
#   must reproduce the uninterrupted oracle's report byte for byte;
# - warm-start: a second run against the persistent store must hit it
#   and report the same;
# - the static pre-analysis on two known-clean drivers (nonzero
#   universe, zero findings under the syntactic rules; rtl8029's buggy
#   variant legitimately fires the interprocedural race rule, so its
#   clean smoke is scoped to the syntactic families), and a full-rule
#   false-positive smoke over every fixed-variant image;
# - a warning-clean doc build.
check: build test
	dune exec bench/main.exe -- parallel --quick
	dune exec bench/main.exe -- chaos --quick
	dune exec bench/main.exe -- merge --quick
	dune exec bench/main.exe -- staticrace --quick
	dune exec bench/main.exe -- resume --quick
	@set -e; dir=$$(mktemp -d); cli=./_build/default/bin/ddt_cli.exe; \
	$$cli test pro100 --json-out $$dir/oracle.json >/dev/null || [ $$? -eq 2 ]; \
	$$cli test pro100 --checkpoint-every 1000 \
	  --checkpoint $$dir/p.ckpt >/dev/null 2>&1 & pid=$$!; \
	sleep 0.3; kill -9 $$pid 2>/dev/null || true; wait $$pid || true; \
	test -f $$dir/p.ckpt; \
	$$cli resume $$dir/p.ckpt --json-out $$dir/resumed.json >/dev/null \
	  || [ $$? -eq 2 ]; \
	cmp $$dir/oracle.json $$dir/resumed.json; \
	echo "kill-resume smoke: resumed report byte-identical"; \
	$$cli test rtl8029 --store-dir $$dir/store \
	  --json-out $$dir/cold.json >/dev/null || [ $$? -eq 2 ]; \
	$$cli test rtl8029 --store-dir $$dir/store \
	  --json-out $$dir/warm.json >$$dir/warm.out || [ $$? -eq 2 ]; \
	grep -q "solver store:" $$dir/warm.out; \
	cmp $$dir/cold.json $$dir/warm.json; \
	echo "warm-start smoke: persistent store hit, identical report"; \
	rm -rf $$dir
	dune exec bin/ddt_cli.exe -- analyze rtl8029 --expect-clean \
	  --rules unreachable-code,stack-imbalance,const-arg-contract > /dev/null
	dune exec bin/ddt_cli.exe -- analyze pcnet --expect-clean > /dev/null
	for d in pro1000 pro100 ac97 audiopci pcnet rtl8029 deeploop; do \
	  dune exec bin/ddt_cli.exe -- analyze $$d --fixed --expect-clean \
	    > /dev/null || exit 1; \
	done
	dune build @doc

# Full static-race experiment: per-driver warning counts (buggy vs fixed,
# new interprocedural rules vs the baseline absint), the zero-FP check on
# every fixed variant, and a directed-confirmation session on rtl8029
# (the race warning must come back dynamically confirmed); writes
# BENCH_staticrace.json.
bench-staticrace:
	dune exec bench/main.exe -- staticrace --json

# Full durability experiment: checkpoint overhead at the default
# interval, kill-resume wall time vs from-scratch with byte-identical
# reports, and the warm-start bit-blast reduction from the persistent
# solver store, across the corpus; writes BENCH_resume.json.
bench-resume:
	dune exec bench/main.exe -- resume --json

bench:
	dune exec bench/main.exe

# Full solver-acceleration experiment: every corpus driver with slicing
# and the query cache off, then on (queries, group solves, cache hits,
# bit-blasts, wall time, bug-report parity); writes BENCH_solver.json.
bench-solver:
	dune exec bench/main.exe -- solver --json

# Full state-merging experiment: frontier sizes and bug-report parity
# with merging off vs on across the corpus (± chaos), including the
# deep-loop >= 10x state-collapse check; writes BENCH_merge.json.
bench-merge:
	dune exec bench/main.exe -- merge --json

clean:
	dune clean
