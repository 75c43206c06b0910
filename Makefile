.PHONY: all build test check bench clean

all: build

build:
	dune build

test:
	dune runtest

# Tier-1 verification plus these smokes of the built CLI, in order:
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

bench:
	dune exec bench/main.exe

clean:
	dune clean
