.PHONY: all build test check bench clean

all: build

build:
	dune build

test:
	dune runtest

# Tier-1 verification plus these smokes of the built CLI, in order:
# - kill-resume: a real SIGKILL mid-exploration, then `ddt_cli resume`
#   must reproduce the uninterrupted oracle's report byte for byte;
# - usage errors: three removed `test` flags must be rejected with
#   cmdliner's usage exit code 124;
# - replay input: a missing and a garbage replay script must each be
#   refused with exit 1;
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
	for flag in "--store-dir x" --no-persist --no-dbt; do \
	  rc=0; $$cli test rtl8029 $$flag >/dev/null 2>&1 || rc=$$?; \
	  [ $$rc -eq 124 ] || { echo "$$flag: exit $$rc, want 124"; exit 1; }; \
	done; \
	echo "usage-error smoke: removed flags exit 124"; \
	printf 'not a replay script\n' > $$dir/garbage.replay; \
	for script in $$dir/missing.replay $$dir/garbage.replay; do \
	  rc=0; $$cli replay rtl8029 $$script >/dev/null 2>&1 || rc=$$?; \
	  [ $$rc -eq 1 ] || { echo "$$script: exit $$rc, want 1"; exit 1; }; \
	done; \
	echo "replay smoke: missing and garbage scripts exit 1"; \
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
