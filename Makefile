.PHONY: all build test check bench clean

all: build

build:
	dune build

test:
	dune runtest

# Tier-1 verification plus these checks of the built CLI, in order:
# - no runtime compile: the driver corpus ships as DXE binaries built by
#   lib/drivers/gen, so `nm` must find no ddt_minicc symbol in the CLI;
# - kill-resume: once the first checkpoint exists, a real SIGKILL
#   mid-exploration (the child must die with status 137, not finish),
#   then `ddt_cli resume` must reproduce the uninterrupted oracle's
#   report byte for byte;
# - usage errors: three removed `test` flags must be rejected with
#   cmdliner's usage exit code 124;
# - replay input: a missing, a garbage and an empty (entry-less) replay
#   script must each be refused with exit 1;
# - unwritable outputs: a `--json-out` that cannot be written fails the
#   run with exit 1; a `--checkpoint` that cannot be written warns once
#   on stderr and the run still completes with its usual exit code;
# - the static pre-analysis on two known-clean drivers (nonzero
#   universe, zero findings under the syntactic rules; rtl8029's buggy
#   variant legitimately fires the interprocedural race rule, so its
#   clean smoke is scoped to the syntactic families), and a full-rule
#   false-positive smoke over every fixed-variant image;
# - a warning-clean doc build.
check: build test
	@set -e; dir=$$(mktemp -d); cli=./_build/default/bin/ddt_cli.exe; \
	nm $$cli > $$dir/syms; n=$$(grep -c camlDdt_minicc $$dir/syms || true); \
	[ $$n -eq 0 ] || { echo "ddt_cli links ddt_minicc ($$n symbols)"; exit 1; }; \
	echo "no-compile check: ddt_cli has no ddt_minicc symbol"; \
	$$cli test pro100 --json-out $$dir/oracle.json >/dev/null || [ $$? -eq 2 ]; \
	$$cli test pro100 --checkpoint-every 1000 \
	  --checkpoint $$dir/p.ckpt >/dev/null 2>&1 & pid=$$!; \
	n=0; while [ ! -f $$dir/p.ckpt ] && [ $$n -lt 500 ]; do \
	  sleep 0.01; n=$$((n + 1)); done; \
	kill -9 $$pid 2>/dev/null || true; rc=0; wait $$pid || rc=$$?; \
	[ $$rc -eq 137 ] || { echo "kill-resume: child exit $$rc, want 137"; exit 1; }; \
	test -f $$dir/p.ckpt; \
	$$cli resume $$dir/p.ckpt --json-out $$dir/resumed.json >/dev/null \
	  || [ $$? -eq 2 ]; \
	cmp $$dir/oracle.json $$dir/resumed.json; \
	echo "kill-resume smoke: resumed report byte-identical"; \
	for flag in "--store-dir x" --no-persist --no-dbt; do \
	  rc=0; $$cli test rtl8029 $$flag >/dev/null 2>&1 || rc=$$?; \
	  [ $$rc -eq 124 ] || { echo "$$flag: exit $$rc, want 124"; exit 1; }; \
	done; \
	echo "usage-error smoke: removed flags exit 124"; \
	printf 'not a replay script\n' > $$dir/garbage.replay; \
	: > $$dir/empty.replay; \
	for script in $$dir/missing.replay $$dir/garbage.replay \
	    $$dir/empty.replay; do \
	  rc=0; $$cli replay rtl8029 $$script >/dev/null 2>&1 || rc=$$?; \
	  [ $$rc -eq 1 ] || { echo "$$script: exit $$rc, want 1"; exit 1; }; \
	done; \
	echo "replay smoke: missing, garbage and empty scripts exit 1"; \
	rc=0; $$cli test rtl8029 --fixed --json-out $$dir/no/x.json \
	  >/dev/null 2>&1 || rc=$$?; \
	[ $$rc -eq 1 ] || { echo "json-out: exit $$rc, want 1"; exit 1; }; \
	rc=0; $$cli test rtl8029 --fixed --checkpoint-every 200 \
	  --checkpoint $$dir/no/c.ckpt >/dev/null 2>$$dir/ckpt.err || rc=$$?; \
	[ $$rc -eq 0 ] || { echo "checkpoint: exit $$rc, want 0"; exit 1; }; \
	[ $$(grep -c "checkpoint: cannot write $$dir/no/c.ckpt" $$dir/ckpt.err) \
	  -eq 1 ] || { echo "checkpoint: want one stderr warning"; exit 1; }; \
	echo "unwritable-output smoke: json-out exits 1, checkpoint warns once"; \
	rm -rf $$dir
	dune exec bin/ddt_cli.exe -- analyze rtl8029 --expect-clean \
	  --rules unreachable-code,stack-imbalance,const-arg-contract > /dev/null
	dune exec bin/ddt_cli.exe -- analyze pcnet --expect-clean > /dev/null
	for d in pro1000 pro100 ac97 audiopci pcnet rtl8029 deeploop; do \
	  dune exec bin/ddt_cli.exe -- analyze $$d --fixed --expect-clean \
	    > /dev/null || exit 1; \
	done
	dune build @doc

bench:
	dune exec bench/main.exe

clean:
	dune clean
