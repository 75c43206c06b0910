.PHONY: all build test check bench clean

all: build

build:
	dune build

test:
	dune runtest

# Tier-1 verification plus these checks of the built CLI, in order:
# - no runtime compile: the driver corpus ships as DXE binaries built by
#   lib/drivers/gen, so `nm` must find no ddt_minicc symbol in the CLI;
# - usage errors: eight removed `test` flags (`-j`/`--jobs` among them)
#   must be rejected with cmdliner's usage exit code 124, and so must the
#   removed `resume` and `analyze` commands;
# - replay input: a missing, a garbage, an empty (entry-less) and an
#   endless (/dev/zero, refused past the 1 MiB read bound) replay script
#   must each be refused with exit 1;
# - unwritable outputs: a `--json-out` that cannot be written fails the
#   run with exit 1; an `evidence --out` under a missing directory or
#   naming a regular file fails with exit 1 and one stderr line;
# - traces: `test --traces` on each buggy corpus driver finishes within
#   20 s with exit 2 and prints one `memory accesses` summary line per
#   reported bug;
# - evidence: `evidence D --out DIR` on each buggy corpus driver exits 0
#   and prints one `execution tree:` line, and `replay D` exits 0 on
#   every script it wrote;
# - a warning-clean doc build.
check: build test
	@set -e; dir=$$(mktemp -d); cli=./_build/default/bin/ddt_cli.exe; \
	nm $$cli > $$dir/syms; n=$$(grep -c camlDdt_minicc $$dir/syms || true); \
	[ $$n -eq 0 ] || { echo "ddt_cli links ddt_minicc ($$n symbols)"; exit 1; }; \
	echo "no-compile check: ddt_cli has no ddt_minicc symbol"; \
	for flag in "--store-dir x" --no-persist --no-dbt --guided --chaos \
	    "--checkpoint-every 1" "--checkpoint x" "-j 2" "--jobs 2"; do \
	  rc=0; $$cli test rtl8029 $$flag >/dev/null 2>&1 || rc=$$?; \
	  [ $$rc -eq 124 ] || { echo "$$flag: exit $$rc, want 124"; exit 1; }; \
	done; \
	for cmd in "resume x" "analyze x"; do \
	  rc=0; $$cli $$cmd >/dev/null 2>&1 || rc=$$?; \
	  [ $$rc -eq 124 ] || { echo "$$cmd: exit $$rc, want 124"; exit 1; }; \
	done; \
	echo "usage-error smoke: removed flags, resume and analyze exit 124"; \
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
	for d in pro1000 pro100 ac97 audiopci pcnet rtl8029 deeploop; do \
	  rc=0; $$cli evidence $$d --out $$dir/$$d > $$dir/ev.out || rc=$$?; \
	  [ $$rc -eq 0 ] || { echo "evidence $$d: exit $$rc, want 0"; exit 1; }; \
	  [ $$(grep -c '^execution tree: ' $$dir/ev.out) -eq 1 ] \
	    || { echo "evidence $$d: want one execution-tree line"; exit 1; }; \
	  for script in $$dir/$$d/*.replay; do \
	    rc=0; $$cli replay $$d $$script >/dev/null || rc=$$?; \
	    [ $$rc -eq 0 ] || { echo "replay $$script: exit $$rc, want 0"; exit 1; }; \
	  done; \
	done; \
	echo "evidence smoke: every buggy driver's scripts replay with exit 0"; \
	rm -rf $$dir
	dune build @doc

bench:
	dune exec bench/main.exe

clean:
	dune clean
