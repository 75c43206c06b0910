#!/usr/bin/env python3
"""The DDT benchmark: cold `ddt_cli test` sessions over corpus workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload wide --seed 1 --seconds 15 --trace 0

--trace 0 measures the end-to-end metrics with untraced CLI sessions;
--trace 1 runs the per-layer trace (layer_trace.ml in-process spans plus
spawned CLI ablations). --workload all runs every workload in turn.
Human-readable tables and a {"meta": ...} line go to stdout first; the
last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. README.md in this directory explains the design.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
CLI = os.path.join(ROOT, "_build", "default", "bin", "ddt_cli.exe")
TRACER = os.path.join(ROOT, "_build", "default", "perfbench", "layer_trace.exe")
WORK = os.path.join(ROOT, ".perfbench")

# name -> corpus drivers; every driver runs buggy and fixed, at -j 1.
WORKLOADS = {
    "wide": ["pro1000", "pro100"],
    "deep": ["deeploop"],
    "small": ["ac97", "audiopci", "pcnet", "rtl8029"],
}
# layer -> (CLI flags of the run compared with the default one, whether
# those flags turn the layer on). *.net_s is the time without the layer
# minus the time with it, so a positive value means the layer pays.
ABLATIONS = {
    "merge": (["--no-merge"], False),
    "dbt": (["--no-dbt"], False),
    "incr": (["--no-solver-incr"], False),
    "parallel": (["-j", "2"], True),
}

SESSION_TIMEOUT_S = 60
CMDLINER_USAGE_ERROR = 124  # exit code of a rejected (e.g. deleted) flag
MIN_PASSES = 3
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 15, 3.0
SPAWN_FLOOR_RUNS = 15


def die(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(2)


# --- processes ---------------------------------------------------------------

_child = None


def _on_alarm(_signum, _frame):
    # Kill the overdue child; wait4 is retried after the handler returns
    # (PEP 475) and reaps it.
    if _child is not None:
        os.kill(_child, signal.SIGKILL)


signal.signal(signal.SIGALRM, _on_alarm)


class Proc:
    """One finished child: exit code (None on timeout), wall, CPU, RSS."""

    def __init__(self, rc, wall, cpu, rss_kb):
        self.rc, self.wall, self.cpu, self.rss_kb = rc, wall, cpu, rss_kb


def spawn(argv, cwd, env, out_path, timeout=SESSION_TIMEOUT_S):
    """Run argv to completion with stdout+stderr to out_path; the wall time
    runs from the spawn to the reaped exit."""
    global _child
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    os.chdir(cwd)
    t0 = time.perf_counter()
    _child = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    _, status, ru = os.wait4(_child, 0)
    _child = None
    wall = time.perf_counter() - t0
    signal.setitimer(signal.ITIMER_REAL, 0)
    os.chdir(ROOT)
    killed = os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
    rc = None if killed and wall >= timeout else os.waitstatus_to_exitcode(status)
    return Proc(rc, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss)


def fresh_env(base, name):
    """A cold per-run environment: empty HOME/TMPDIR/cache directory, so
    anything a session persists between runs starts over."""
    d = os.path.join(base, name)
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    env = dict(os.environ, HOME=d, TMPDIR=d, XDG_CACHE_HOME=os.path.join(d, ".cache"))
    return d, env


# --- sessions and the correctness oracle --------------------------------------

def label(sess):
    driver, fixed = sess
    return driver + (":fixed" if fixed else "")


def session_argv(sess, json_path, extra=()):
    driver, fixed = sess
    argv = [CLI, "test", driver] + (["--fixed"] if fixed else [])
    return argv + list(extra) + ["--json-out", json_path]


class Run:
    """One CLI session: its process figures, JSON report and stdout."""

    def __init__(self, sess, proc, report, text):
        self.sess, self.proc, self.report, self.text = sess, proc, report, text


def run_session(sess, cwd, env, extra=()):
    json_path = os.path.join(cwd, "report.json")
    out_path = os.path.join(cwd, "stdout.txt")
    if os.path.exists(json_path):
        os.remove(json_path)
    proc = spawn(session_argv(sess, json_path, extra), cwd, env, out_path)
    try:
        with open(json_path) as f:
            report = json.load(f)
    except (OSError, ValueError):
        report = None
    with open(out_path, errors="replace") as f:
        text = f.read()
    return Run(sess, proc, report, text)


def bug_keys(report):
    return sorted(b["key"] for b in report["bugs"])


class Oracle:
    """Counts sessions and failures. A session fails on an exit code other
    than 0/2, a timeout, a malformed report, a buggy variant that misses a
    hand-written Table 2 defect (kind, with multiplicity), a fixed variant
    with any dynamic bug, or bug keys that differ from the first run of the
    same session."""

    def __init__(self, expected):
        self.expected = expected
        self.keys = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, sess, rc, report):
        self.attempted += 1
        problems = []
        if rc is None:
            problems.append("timed out")
        elif rc not in (0, 2):
            problems.append("exit code %d" % rc)
        try:
            kinds = [b["kind"] for b in report["bugs"]]
            keys = bug_keys(report)
            for k in ("covered_reachable", "reachable_blocks"):
                int(report[k])
        except (KeyError, TypeError, ValueError):
            problems.append("malformed JSON report")
            kinds = keys = None
        if keys is not None:
            driver, fixed = sess
            if fixed and kinds:
                problems.append("fixed variant reports %d bug(s)" % len(kinds))
            if not fixed:
                left = list(kinds)
                for k in self.expected[driver]:
                    if k in left:
                        left.remove(k)
                    else:
                        problems.append("missing expected %s" % k)
            if keys != self.keys.setdefault(sess, keys):
                problems.append("bug keys differ from the first run")
        if problems:
            self.failed += 1
            self.problems.append("%s: %s" % (label(sess), "; ".join(problems)))
        return not problems

    def check_run(self, run):
        return self.check(run.sess, run.proc.rc, run.report)


# --- statistics ----------------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def tail(values):
    """The highest of p50..p99.9 with at least ten samples beyond it."""
    s = sorted(values)
    n = len(s)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return "p%g %.4f" % (p, s[min(n - 1, int(p / 100.0 * n))])
    return "no tail (n<20)"


def describe(name, unit, values):
    q1, q3 = quartiles(values)
    return "  %-26s %12.4f %-5s q1 %.4f  q3 %.4f  %s  (n=%d)" % (
        name, statistics.median(values), unit, q1, q3, tail(values), len(values))


def emit(correct, attempted, failed, metrics):
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)


# --- build and metadata -------------------------------------------------------------

def build():
    if not (os.path.isfile("dune-project") and os.path.isfile(os.path.join("bin", "ddt_cli.ml"))):
        die("run from the root of a DDT checkout (no dune-project / bin/ddt_cli.ml here)")
    dune = shutil.which("dune")
    if dune is None:
        die("dune is not on PATH")
    # No shared dune cache: the build writes only to the checkout's _build.
    p = subprocess.Popen(
        [dune, "build", "--root", ".", "./bin/ddt_cli.exe", "./perfbench/layer_trace.exe"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, start_new_session=True,
        env=dict(os.environ, DUNE_CACHE="disabled"))
    try:
        out, _ = p.communicate(timeout=850)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        die("build timed out")
    if p.returncode != 0:
        sys.stderr.write(out.decode(errors="replace"))
        die("build failed")


def expectations():
    out = subprocess.run([TRACER, "expect"], capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def command_output(argv):
    try:
        return subprocess.run(argv, capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def source_digest():
    """Identifies the code under test when the checkout is not a git tree."""
    h = hashlib.sha256()
    for top in ("bin", "lib", "dune", "dune-project"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in paths:
            h.update(path.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def metadata(workload, seed, seconds, trace):
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(),
        "ocaml": command_output(["ocamlfind", "ocamlopt", "-version"])
        or command_output(["ocamlopt", "-version"]) or "unknown",
        "git_rev": command_output(["git", "rev-parse", "HEAD"]) or "none",
        "source_sha256": source_digest(),
        "drivers": WORKLOADS[workload],
        "cli": "ddt_cli test DRIVER [--fixed] --json-out PATH",
        "ablations": [" ".join(flags) for flags, _ in ABLATIONS.values()] if trace else [],
    }


# --- end-to-end (untraced) run ------------------------------------------------------

def run_pass(order, cwd, env, oracle):
    runs = [run_session(s, cwd, env) for s in order]
    for r in runs:
        oracle.check_run(r)
    return runs


def measure(workload, sessions, seed, seconds, expected, base):
    rng = random.Random(seed)
    oracle = Oracle(expected)

    def order():
        s = list(sessions)
        rng.shuffle(s)
        return s

    # Set-up: cold passes, each in a fresh environment; untimed otherwise.
    setups = []
    while len(setups) < MIN_SETUPS or (
            sum(setups) < SETUP_BUDGET_S and len(setups) < MAX_SETUPS):
        cwd, env = fresh_env(base, "setup%d" % len(setups))
        setups.append(sum(r.proc.wall for r in run_pass(order(), cwd, env, oracle)))

    passes = []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        passes.append(run_pass(order(), cwd, env, oracle))

    def valid(runs):
        return [r.report for r in runs if r.report is not None and "bugs" in r.report]

    bugs = [float(sum(len(rep["bugs"]) for rep in valid(p))) for p in passes]
    cov = [100.0 * sum(rep["covered_reachable"] for rep in valid(p))
           / max(1, sum(rep["reachable_blocks"] for rep in valid(p))) for p in passes]
    if len(set(bugs)) > 1 or len(set(cov)) > 1:
        oracle.failed += 1
        oracle.problems.append("bugs_found/coverage_pct differ between passes")
    rss = [max(r.proc.rss_kb for r in p) / 1024.0 for p in passes]
    # Other tenants of the host only ever add time, and their load drifts
    # by tens of percent over minutes, which moves a run's median pass
    # with it. A session's fastest run in the window is far steadier, so
    # the gated pass figures add up each session's fastest run.
    by_session = {}
    for p in passes:
        for r in p:
            by_session.setdefault(r.sess, []).append(r.proc)
    metrics = {
        "pass_s": (sum(min(x.wall for x in v) for v in by_session.values()), "s"),
        "cpu_s": (sum(min(x.cpu for x in v) for v in by_session.values()), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "bugs_found": (statistics.median(bugs), "count"),
        "coverage_pct": (statistics.median(cov), "%"),
        "setup_s": (statistics.median(setups), "s"),
    }

    print("workload %s: %d pass(es) x %d session(s), %d set-up pass(es)" % (
        workload, len(passes), len(sessions), len(setups)))
    for name, (value, unit) in metrics.items():
        print("  %-26s %12.4f %s" % (name, value, unit))
    print("  %-26s %12.4f (%d failed of %d sessions)" % (
        "failed_share", oracle.failed / oracle.attempted, oracle.failed, oracle.attempted))
    print(describe("wall per pass", "s", [sum(r.proc.wall for r in p) for p in passes]))
    print(describe("cpu per pass", "s", [sum(r.proc.cpu for r in p) for p in passes]))
    print(describe("wall per session", "ms", [1000.0 * r.proc.wall for p in passes for r in p]))
    print(describe("wall per set-up pass", "s", setups))
    print(describe("peak rss per pass", "MB", rss))
    for p in oracle.problems[:20]:
        print("  FAILED " + p)
    return oracle, metrics


# --- per-layer (traced) run -----------------------------------------------------------

# metric -> (regex over the Ddt.pp_report text, unit, better); the regex's
# group is the counter. A line missing from every session reads "absent".
TEXT_COUNTERS = {
    "solver.queries": (r"^solver: (\d+) queries", "count", "lower"),
    "solver.group_solves": (r"^solver: .*?(\d+) group solves", "count", "lower"),
    "solver.bitblasts": (r"^solver: .*?(\d+) bit-blasts", "count", "lower"),
    "solver.retries": (r"^solver retries: .*?(\d+) escalated retries", "count", "lower"),
    "incr.queries": (r"^solver sessions: (\d+) incremental queries", "count", "higher"),
    "incr.model_hits": (r"^solver sessions: .*?(\d+) model hits", "count", "higher"),
    "incr.rebuilds": (r"^solver sessions: .*?(\d+) rebuilds", "count", "lower"),
    "merge.fused": (r"^merge: (\d+) state\(s\) fused", "count", "higher"),
    "merge.ites": (r"^merge: .*?(\d+) value\(s\) lifted", "count", "lower"),
    "merge.forks_avoided": (r"^merge: .*?(\d+) fork\(s\) avoided", "count", "higher"),
    "merge.refusals": (r"^merge: .*?(\d+) refusal\(s\)", "count", "lower"),
    "dbt.guard_bails": (r"^dbt: .*?(\d+) guard bailout", "count", "lower"),
    "dbt.decompiled": (r"^dbt: .*?(\d+) de-compiled", "count", "lower"),
    "symexec.states": (r"^coverage: .*?(\d+) states", "count", "lower"),
    "symexec.steps": (r"^coverage: .*?(\d+) instructions", "count", "lower"),
}
# Read from the stdout of the `-j 2` ablation runs.
PARALLEL_COUNTERS = {
    "symexec.steals": (r"^parallel: .*?(\d+) steals", "count", "lower"),
    "solver.cross_worker_hits": (r"^parallel: .*?(\d+) cross-worker cache hits", "count", "higher"),
}
# metric -> the JSON report key summed into it; ratios are formed below.
JSON_COUNTERS = {
    "symexec.finished": "finished_states",
    "symexec.states_dropped": "states_dropped",
    "sched.paths_to_first_bug": "paths_to_first_bug",
    "dbt.compiled_steps": "dbt_compiled_steps",
    "dbt.total_steps": "total_steps",
}
# ratio -> the counter whose absence makes it absent too
DERIVED = {
    "merge.accept_ratio": "merge.fused",
    "symexec.steps_per_s": "symexec.steps",
    "dbt.compiled_share": "dbt.compiled_steps",
    "symexec.finished_ratio": "symexec.finished",
}
# metric -> the layer_trace span summed into it
SPANS = {
    "minicc.compile_s": "compile_s",
    "staticx.icfg_s": "icfg_s",
    "staticx.sfind_s": "sfind_s",
    "staticx.pdom_s": "pdom_s",
    "core.session_s": "session_s",
    "solver.miss_replay_s": "replay_s",
}

# Every per-layer metric the traced run prints: name -> (unit, better).
PER_LAYER = {
    "bin.spawn_s": ("s", "lower"),
    "minicc.compile_s": ("s", "lower"),
    "staticx.icfg_s": ("s", "lower"),
    "staticx.sfind_s": ("s", "lower"),
    "staticx.pdom_s": ("s", "lower"),
    "core.session_s": ("s", "lower"),
    "core.engine_s": ("s", "lower"),
    "solver.cache_hit_rate": ("ratio", "higher"),
    "solver.miss_replay_s": ("s", "lower"),
    "merge.accept_ratio": ("ratio", "higher"),
    "symexec.steps_per_s": ("1/s", "higher"),
    "dbt.compiled_share": ("ratio", "higher"),
    "symexec.finished_ratio": ("ratio", "higher"),
    "symexec.states_dropped": ("count", "lower"),
    "sched.paths_to_first_bug": ("count", "lower"),
    "merge.net_s": ("s", "higher"),
    "dbt.net_s": ("s", "higher"),
    "incr.net_s": ("s", "higher"),
    "parallel.net_s": ("s", "higher"),
    "bench.spawn_overhead_s": ("s", "lower"),
}
PER_LAYER.update({k: (u, b) for k, (_, u, b) in TEXT_COUNTERS.items()})
PER_LAYER.update({k: (u, b) for k, (_, u, b) in PARALLEL_COUNTERS.items()})


def text_counters(table, text):
    """name -> the counter read from a report text, or None when absent."""
    c = {}
    for name, (rx, _, _) in table.items():
        m = re.search(rx, text, re.M)
        c[name] = float(m.group(1)) if m else None
    return c


def counters(text, report):
    """Counters of one session: name -> value, or None when absent."""
    c = text_counters(TEXT_COUNTERS, text)
    for name, key in JSON_COUNTERS.items():
        v = report.get(key)
        c[name] = None if v is None else float(v)
    return c


def pass_layers(lines):
    """Per-layer figures of one in-process pass (sums over its sessions)."""
    m = {name: sum(l[key] for l in lines) for name, key in SPANS.items()}
    cs = [counters(l["text"], l["report"]) for l in lines]
    absent = set()
    for name in list(TEXT_COUNTERS) + list(JSON_COUNTERS):
        vals = [c[name] for c in cs if c[name] is not None]
        if not vals:
            absent.add(name)
        m[name] = sum(vals)
    m["core.engine_s"] = (m["core.session_s"] - m["staticx.icfg_s"]
                          - m["staticx.sfind_s"] - m["staticx.pdom_s"])
    hits = sum(l["cache_hits"] for l in lines)
    lookups = sum(l["cache_hits"] / l["cache_hit_rate"] for l in lines if l["cache_hit_rate"] > 0)
    m["solver.cache_hit_rate"] = hits / lookups if lookups else 0.0
    tried = m["merge.fused"] + m["merge.refusals"]
    m["merge.accept_ratio"] = m["merge.fused"] / tried if tried else 0.0
    m["symexec.steps_per_s"] = m["symexec.steps"] / m["core.engine_s"] if m["core.engine_s"] > 0 else 0.0
    m["dbt.compiled_share"] = (m["dbt.compiled_steps"] / m["dbt.total_steps"]
                               if m["dbt.total_steps"] else 0.0)
    m["symexec.finished_ratio"] = (m["symexec.finished"] / m["symexec.states"]
                                   if m["symexec.states"] else 0.0)
    absent |= {ratio for ratio, source in DERIVED.items() if source in absent}
    return m, absent


def run_tracer(order_args, seconds, seed, cwd, env):
    out_path = os.path.join(cwd, "trace.ndjson")
    argv = [TRACER, "trace", "--seconds", "%g" % seconds, "--seed", str(seed)] + order_args
    proc = spawn(argv, cwd, env, out_path, timeout=150)
    lines = []
    with open(out_path, errors="replace") as f:
        for raw in f:
            try:
                lines.append(json.loads(raw))
            except ValueError:
                pass
    return proc, lines


def trace(workload, sessions, seed, seconds, expected, base):
    rng = random.Random(seed)
    oracle = Oracle(expected)
    cwd, env = fresh_env(base, "trace")
    t0 = time.perf_counter()

    # The process floor: spawning the CLI for a command that does no work.
    floor = [spawn([CLI, "list"], cwd, env, os.path.join(cwd, "list.txt")).wall
             for _ in range(SPAWN_FLOOR_RUNS)]

    # Ablations: each session with the default config and with each
    # layer's flags; every run must report the default run's bug keys.
    layers = [l for l in ABLATIONS if l != "parallel" or (os.cpu_count() or 1) >= 2]
    absent = {l + ".net_s" for l in ABLATIONS if l not in layers}
    default_s, net = [], {l: [] for l in layers}
    parallel = {name: [] for name in PARALLEL_COUNTERS}
    while not default_s or time.perf_counter() - t0 < seconds / 2:
        order = list(sessions)
        rng.shuffle(order)
        default_total = 0.0
        toggled = {l: 0.0 for l in layers}
        par = {name: [] for name in PARALLEL_COUNTERS}
        for sess in order:
            d = run_session(sess, cwd, env)
            ok = oracle.check_run(d)
            default_total += d.proc.wall
            rng.shuffle(layers)
            for layer in layers:
                flags, _ = ABLATIONS[layer]
                r = run_session(sess, cwd, env, flags)
                if r.proc.rc == CMDLINER_USAGE_ERROR:
                    absent.add(layer + ".net_s")
                    continue
                toggled[layer] += r.proc.wall
                oracle.attempted += 1
                if not ok or r.report is None or r.proc.rc not in (0, 2) \
                        or bug_keys(r.report) != bug_keys(d.report):
                    oracle.failed += 1
                    oracle.problems.append("%s %s: bug keys differ from the default run"
                                           % (label(sess), " ".join(flags)))
                if layer == "parallel":
                    for name, v in text_counters(PARALLEL_COUNTERS, r.text).items():
                        if v is not None:
                            par[name].append(v)
        default_s.append(default_total)
        for layer in layers:
            on = ABLATIONS[layer][1]
            diff = toggled[layer] - default_total
            net[layer].append(-diff if on else diff)
        for name, vals in par.items():
            if vals:
                parallel[name].append(sum(vals))
    absent |= {name for name, vals in parallel.items() if not vals}

    # In-process spans around the public layer entry points.
    budget = max(0.0, seconds - (time.perf_counter() - t0))
    proc, lines = run_tracer([label(s) for s in sessions], budget, seed, cwd, env)
    if proc.rc != 0 or not lines:
        oracle.attempted += 1
        oracle.failed += 1
        oracle.problems.append("layer_trace exited %s with %d line(s)" % (proc.rc, len(lines)))
    by_pass = {}
    for l in lines:
        sess = (l["driver"], l["fixed"])
        oracle.check(sess, 2 if l["report"]["bugs"] else 0, l["report"])
        by_pass.setdefault(l["pass"], []).append(l)
    complete = [p for p in by_pass.values() if len(p) == len(sessions)]
    per_pass = [pass_layers(p) for p in complete]
    for _, a in per_pass:
        absent |= a

    def med(name):
        vals = [m[name] for m, _ in per_pass]
        return statistics.median(vals) if vals else 0.0

    metrics = {}
    for name in PER_LAYER:
        if name in absent:
            v = 0.0
        elif name.endswith(".net_s"):
            v = statistics.median(net[name[:-len(".net_s")]])
        elif name in parallel:
            v = statistics.median(parallel[name])
        elif name == "bin.spawn_s":
            v = statistics.median(floor)
        elif name == "bench.spawn_overhead_s":
            v = statistics.median(default_s) - (med("core.session_s") + med("minicc.compile_s"))
        else:
            v = med(name)
        metrics[name] = (v, PER_LAYER[name][0])

    print("workload %s (traced): %d in-process pass(es), %d ablation round(s)" % (
        workload, len(complete), len(default_s)))
    for name, (v, unit) in metrics.items():
        print("  %-26s %s" % (name, "absent" if name in absent else "%.6g %s" % (v, unit)))
    print(describe("default CLI pass_s", "s", default_s))
    print(describe("bin.spawn_s", "s", floor))
    if per_pass:
        print("  core.engine_s share of core.session_s: %.3f" % (
            med("core.engine_s") / med("core.session_s")))
    for p in oracle.problems[:20]:
        print("  FAILED " + p)
    return oracle, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    expected = expectations()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for w in names:
        sessions = [(d, f) for d in WORKLOADS[w] for f in (False, True)]
        print(json.dumps({"meta": metadata(w, args.seed, args.seconds, args.trace)}))
        base = os.path.join(WORK, "%s-%d" % (w, os.getpid()))
        try:
            run = trace if args.trace else measure
            oracle, m = run(w, sessions, args.seed, args.seconds, expected, base)
        finally:
            shutil.rmtree(base, ignore_errors=True)
        attempted += oracle.attempted
        failed += oracle.failed
        prefix = "" if len(names) == 1 else w + "."
        metrics.update({prefix + k: v for k, v in m.items()})
    emit(failed == 0, attempted, failed, metrics)


if __name__ == "__main__":
    main()
