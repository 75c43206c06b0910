.PHONY: all build test check bench clean

all: build

build:
	dune build

test:
	dune runtest

# Tier-1 verification plus these checks of the built CLI, in order:
# - no runtime compile: the driver corpus ships as DXE binaries built by
#   lib/drivers/gen, so `nm` must find no ddt_minicc symbol in the CLI;
# - usage errors: seven removed `test` flags and an out-of-range `-j`
#   (0 and 129; OCaml caps a process at 128 domains) must be rejected
#   with cmdliner's usage exit code 124, and so must the removed
#   `resume` command;
# - replay input: a missing, a garbage, an empty (entry-less) and an
#   endless (/dev/zero, refused past the 1 MiB read bound) replay script
#   must each be refused with exit 1;
# - unwritable outputs: a `--json-out` that cannot be written fails the
#   run with exit 1; an `evidence --out` under a missing directory or
#   naming a regular file fails with exit 1 and one stderr line;
# - traces: `test --traces` on each buggy corpus driver finishes within
#   20 s with exit 2 and prints one `memory accesses` summary line per
#   reported bug;
# - static warnings: `analyze` (the only way to get them; `test` runs
#   no static finder) on pro100, ac97, audiopci and rtl8029 exits 0 and
#   lists 1, 1, 3 and 1 findings;
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
	for flag in "--store-dir x" --no-persist --no-dbt --guided --chaos \
	    "--checkpoint-every 1" "--checkpoint x" "-j 0" "-j 129"; do \
	  rc=0; $$cli test rtl8029 $$flag >/dev/null 2>&1 || rc=$$?; \
	  [ $$rc -eq 124 ] || { echo "$$flag: exit $$rc, want 124"; exit 1; }; \
	done; \
	rc=0; $$cli resume x >/dev/null 2>&1 || rc=$$?; \
	[ $$rc -eq 124 ] || { echo "resume x: exit $$rc, want 124"; exit 1; }; \
	echo "usage-error smoke: removed flags, out-of-range -j and resume exit 124"; \
	printf 'not a replay script\n' > $$dir/garbage.replay; \
	: > $$dir/empty.replay; \
	for script in $$dir/missing.replay $$dir/garbage.replay \
	    $$dir/empty.replay /dev/zero; do \
	  rc=0; $$cli replay rtl8029 $$script >/dev/null 2>&1 || rc=$$?; \
	  [ $$rc -eq 1 ] || { echo "$$script: exit $$rc, want 1"; exit 1; }; \
	done; \
	echo "replay smoke: missing, garbage, empty and endless scripts exit 1"; \
	rc=0; $$cli test rtl8029 --fixed --json-out $$dir/no/x.json \
	  >/dev/null 2>&1 || rc=$$?; \
	[ $$rc -eq 1 ] || { echo "json-out: exit $$rc, want 1"; exit 1; }; \
	for out in $$dir/no/ev $$dir/garbage.replay; do \
	  rc=0; $$cli evidence rtl8029 --out $$out >/dev/null 2>$$dir/ev.err \
	    || rc=$$?; \
	  [ $$rc -eq 1 ] || { echo "evidence --out $$out: exit $$rc, want 1"; \
	    exit 1; }; \
	  [ $$(wc -l < $$dir/ev.err) -eq 1 ] \
	    || { echo "evidence --out $$out: want one stderr line"; exit 1; }; \
	done; \
	echo "unwritable-output smoke: json-out and evidence exit 1"; \
	for d in pro1000 pro100 ac97 audiopci pcnet rtl8029 deeploop; do \
	  rc=0; timeout 20 $$cli test $$d --traces > $$dir/traces.out || rc=$$?; \
	  [ $$rc -eq 2 ] || { echo "$$d --traces: exit $$rc, want 2"; exit 1; }; \
	  bugs=$$(sed -n 's/^\([0-9]*\) bug(s) found:$$/\1/p' $$dir/traces.out); \
	  [ $$(grep -c ' memory accesses, ' $$dir/traces.out) -eq "$$bugs" ] \
	    || { echo "$$d --traces: want $$bugs memory-access lines"; exit 1; }; \
	done; \
	echo "traces smoke: every buggy driver's --traces run exits 2, one summary per bug"; \
	for df in pro100:1 ac97:1 audiopci:3 rtl8029:1; do \
	  d=$${df%%:*}; want=$${df#*:}; \
	  rc=0; $$cli analyze $$d > $$dir/analyze.out || rc=$$?; \
	  [ $$rc -eq 0 ] || { echo "analyze $$d: exit $$rc, want 0"; exit 1; }; \
	  n=$$(sed -n 's/^\([0-9]*\) static finding(s):$$/\1/p' $$dir/analyze.out); \
	  [ "$$n" = "$$want" ] \
	    || { echo "analyze $$d: $$n findings, want $$want"; exit 1; }; \
	done; \
	echo "analyze smoke: pro100, ac97, audiopci and rtl8029 list 1, 1, 3 and 1 findings"; \
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
