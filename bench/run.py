"""Benchmark of the opptypes proof checker.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one workload, or `all` to run each in turn in its own process.
Workloads (see each module for why it exists): script_wide, deep_terms and
search_sweep.  The benchmark is one process with one thread and a closed
loop with a single caller: each item starts only after the previous verdict
returned.  All inputs are generated from --seed; the package under test
(src/opptypes) receives only those inputs, and every verdict is checked
against the answer known from how the input was built.

--trace 0 measures end to end: set-up in fresh interpreters, then whole
rounds of items until --seconds have passed and at least 100 items have
returned a verdict.  Metrics: setup_s, verdicts_per_s, verdict_p50_ms,
verdict_p90_ms, failed_frac and peak_rss_mb.

--trace 1 runs one fixed slice, the probe item of every workload and then
the workload's first round, once untraced and twice with every layer
function wrapped by the span recorder (tracer.py).  It reports per-layer
self time and counts, the tracing overhead, runs the CLI agreement check,
requires both traced passes to agree exactly, and writes the spans and a
table to bench/out/.

Times are CPU time of the benchmark's one thread (time.thread_time; the
set-up child uses its process CPU time).  The loop is single-threaded,
does no I/O and never waits, so on a dedicated core this equals wall time;
on a shared virtual machine it leaves out the time the host gives to other
tenants (on a 2-vCPU VM, a fixed loop's wall time varied up to 2.6x while
its CPU time varied by under 10%).  CPU time still drifts with the host's
load, so in the end-to-end run every item's CPU time, and each set-up
time, is scaled to a nominal host speed measured by a fixed reference
kernel run right after it (hostspeed.py).  The unscaled values are
printed beside the scaled ones.  The traced run's times are unscaled.
The run length (--seconds) is wall time.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  An item that raises, or whose verdict
differs from the known answer, is failed; `correct` is false when an item
fails that has no known defect, or when a self-check fails.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter, thread_time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

WORKLOADS = ("script_wide", "deep_terms", "search_sweep")
MIN_VERDICTS = 100
SETUP_REPEATS = 9

# per-layer metrics: (name, unit); self_s and calls come from the tracer
PER_LAYER = (
    ("parser.tokenize.self_s", "s"), ("parser.parse.self_s", "s"),
    ("parser.tokens", "count"),
    ("printer.type_str.self_s", "s"), ("printer.term_str.self_s", "s"),
    ("runner.run.self_s", "s"), ("runner.report_json.self_s", "s"),
    ("cli.import_s", "s"), ("cli.check_wall_s", "s"),
    ("kernel.declare.calls", "count"), ("kernel.declare.self_s", "s"),
    ("kernel.context_lookup.calls", "count"),
    ("kernel.context_lookup.self_s", "s"),
    ("kernel.check_formation.self_s", "s"), ("kernel.type_equal.self_s", "s"),
    ("kernel.check.calls", "count"), ("kernel.check.self_s", "s"),
    ("kernel.recheck.self_s", "s"), ("kernel.term_equal.self_s", "s"),
    ("kernel.derivation_nodes", "count"),
    ("duality.onf.calls", "count"), ("duality.onf.self_s", "s"),
    ("duality.dual.self_s", "s"), ("duality.expand_in_basis.self_s", "s"),
    ("syntax.alpha_eq.calls", "count"), ("syntax.alpha_eq.self_s", "s"),
    ("syntax.subst.calls", "count"), ("syntax.subst.self_s", "s"),
    ("syntax.normalize_term.self_s", "s"),
    ("logic.translate.self_s", "s"), ("logic.formula_nnf.self_s", "s"),
    ("search.bounded_inhabit.self_s", "s"),
    ("search.iter_inhabitants.calls", "count"),
    ("search.nodes_per_goal", "count"),
    ("trace.overhead_s", "s"),
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "opptypes", "__init__.py")):
        print(f"error: the package is not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    if args.trace:
        lines, result = traced(args.workload, args.seed)
    else:
        lines, result = timed(args.workload, args.seed, args.seconds)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own process, so each has its own peak RSS."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines))
        results[name] = json.loads(last)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items()
                    for k, v in r["metrics"].items()}}))
    return 0


def _run_one(wl, state, item):
    """(verdict, exception, CPU seconds) of one item; nothing an item
    raises stops the run."""
    t0 = thread_time()
    try:
        verdict, error = wl.run_item(state, item), None
    except Exception as e:  # noqa: BLE001 - every failure is counted
        verdict, error = None, e
    return verdict, error, thread_time() - t0


def _problem(wl, state, item, verdict, error):
    if error is not None:
        return f"raised {type(error).__name__}: {str(error)[:200]}"
    return wl.check_verdict(item, verdict, state)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.unexplained = []

    def add(self, item, problem):
        self.attempted += 1
        if problem is None:
            return
        self.failed += 1
        if item.known_defect is None:
            self.unexplained.append(f"{item.kind}: {problem}")
        else:
            self.known += 1


# ---------------------------------------------------------------------------
# End-to-end run
# ---------------------------------------------------------------------------

def setup_seconds(name):
    """Median set-up time over fresh interpreters: (scaled, unscaled)."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable,
                              os.path.join(BENCH, "setup_child.py"), name],
                             capture_output=True, text=True, timeout=120,
                             check=True)
        raw, scaled = map(float, out.stdout.split())
        times.append((scaled, raw))
    return (statistics.median(t[0] for t in times),
            statistics.median(t[1] for t in times))


def timed(name, seed, seconds):
    from hostspeed import HostSpeed
    setup_s, setup_raw = setup_seconds(name)
    import opptypes
    wl = importlib.import_module(name)
    state = wl.build_state(opptypes)
    host = HostSpeed()
    tally, latencies, raw_latencies, rounds = Tally(), [], [], 0
    loop_s = raw_loop_s = 0.0
    start = perf_counter()
    while perf_counter() - start < seconds or len(latencies) < MIN_VERDICTS:
        for item in wl.make_round(seed, rounds):
            verdict, error, raw = _run_one(wl, state, item)
            dt = raw * host.scale(raw)
            loop_s += dt
            raw_loop_s += raw
            problem = _problem(wl, state, item, verdict, error)
            tally.add(item, problem)
            if problem is None:
                latencies.append(dt)
                raw_latencies.append(raw)
        rounds += 1
        gc.collect()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = len(latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "verdicts_per_s": (tally.attempted / loop_s, "1/s"),
        "verdict_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "verdict_p90_ms": (statistics.quantiles(latencies, n=10)[-1] * 1e3,
                           "ms"),
        "failed_frac": (tally.failed / tally.attempted, "fraction"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    unscaled = {
        "setup_s": setup_raw,
        "verdicts_per_s": tally.attempted / raw_loop_s,
        "verdict_p50_ms": statistics.median(raw_latencies) * 1e3,
        "verdict_p90_ms": statistics.quantiles(raw_latencies, n=10)[-1] * 1e3,
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} fresh interpreters",
        "verdicts_per_s": f"{tally.attempted} items in {loop_s:.3f} "
                          "scaled CPU s",
        "verdict_p50_ms": f"n={n}",
        "verdict_p90_ms": f"n={n}, {n - int(0.9 * n)} beyond",
        "failed_frac": f"{tally.failed} of {tally.attempted}, "
                       f"{tally.known} with known defects",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    for k, v in unscaled.items():
        notes[k] += f"; unscaled {v:.6g}"
    lines = [f"workload {name}  seed {seed}  rounds {rounds}  "
             f"items {tally.attempted}  verdicts {n}  failed {tally.failed}",
             f"  host scale {host.mean_scale():.4f} "
             f"({host.calls} reference kernel calls)"]
    lines += [f"  {k:16s} {v:14.6g} {u:9s} ({notes[k]})"
              for k, (v, u) in metrics.items()]
    lines += [f"  UNEXPECTED {u}" for u in tally.unexplained]
    return lines, _result(not tally.unexplained, tally, metrics)


def _result(correct, tally, metrics):
    return {"correct": correct, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def _slice(name, seed, opptypes):
    """Probe item of every workload, then the workload's first round."""
    mods = {n: importlib.import_module(n) for n in WORKLOADS}
    states = {n: m.build_state(opptypes) for n, m in mods.items()}
    out = [(mods[n], states[n], mods[n].probe_item(seed)) for n in WORKLOADS]
    wl = mods[name]
    out += [(wl, states[name], item) for item in wl.make_round(seed, 0)]
    return out


def _pass(items, tracer=None):
    gc.collect()
    wall, verdicts, errors = 0.0, [], []
    for i, (wl, state, item) in enumerate(items):
        if tracer is not None:
            tracer.item = i
        verdict, error, dt = _run_one(wl, state, item)
        wall += dt
        verdicts.append(verdict)
        errors.append(error)
    return wall, verdicts, errors


def _traced_pass(items):
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        wall, verdicts, errors = _pass(items, tracer)
    finally:
        tracer.uninstall()
    return tracer, wall, verdicts, errors


def _outcome(verdicts, errors):
    return [repr(v) if e is None else f"{type(e).__name__}: {e}"
            for v, e in zip(verdicts, errors)]


def traced(name, seed):
    import cli_check
    import opptypes
    items = _slice(name, seed, opptypes)
    _pass(items)                   # warm-up: first-use costs are not tracing
    base_wall, _, _ = _pass(items)
    tracer, wall, verdicts, errors = _traced_pass(items)
    again, _, verdicts2, errors2 = _traced_pass(items)

    tally, problems = Tally(), []
    for (wl, state, item), v, e in zip(items, verdicts, errors):
        tally.add(item, _problem(wl, state, item, v, e))
    if tracer.count_signature() != again.count_signature():
        problems.append("two traced passes gave different counts")
    if _outcome(verdicts, errors) != _outcome(verdicts2, errors2):
        problems.append("two traced passes gave different verdicts")
    wl = items[-1][0]
    other = [it.fingerprint for it in wl.make_round(seed + 1, 0)]
    if other == [it.fingerprint for _, _, it in items[len(WORKLOADS):]]:
        problems.append(f"seeds {seed} and {seed + 1} gave the same inputs")
    probe = items[0][2]
    cli_wall, cli_problems = cli_check.check_agreement(
        ROOT, SRC, probe, verdicts[0])
    problems += cli_problems

    nodes, _ = tracer.layer("search.iter_inhabitants")
    goals, _ = tracer.layer("search.bounded_inhabit")
    values = {"cli.import_s": cli_check.import_seconds(SRC),
              "cli.check_wall_s": cli_wall,
              "trace.overhead_s": wall - base_wall,
              "search.nodes_per_goal": nodes / max(1, goals)}
    values.update(tracer.counts)
    for metric, _ in PER_LAYER:
        layer, _, kind = metric.rpartition(".")
        if kind == "calls":
            values[metric] = tracer.layer(layer)[0]
        elif kind == "self_s":
            values[metric] = tracer.layer(layer)[1]
    metrics = {m: (values[m], u) for m, u in PER_LAYER}

    lines = [f"traced workload {name}  seed {seed}  items {len(items)} "
             f"({len(WORKLOADS)} probes + round 0)  failed {tally.failed}",
             f"  untraced {base_wall:.3f} CPU s, traced {wall:.3f} CPU s, "
             f"spans {len(tracer.span_layer)}"]
    lines += [f"  {m:34s} {v:14.6g} {u}" for m, (v, u) in metrics.items()]
    lines += [f"  UNEXPECTED {u}" for u in tally.unexplained]
    lines += [f"  SELF-CHECK FAILED {p}" for p in problems]
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"trace_{name}_seed{seed}")
    tracer.write_spans(stem + ".spans.tsv.gz")
    with open(stem + ".txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    correct = not tally.unexplained and not problems
    return lines, _result(correct, tally, metrics)


if __name__ == "__main__":
    sys.exit(main())
