"""paircommit benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the package is imported from
its ``src/`` directory. The runner builds the workload from the seed
(timed as ``setup_s``), then runs rounds of it as one closed-loop client
in one thread, each call sent after the last returned, until S seconds
have passed. Every output is checked against a value fixed in set-up.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics listed in BENCHMARK.json. With ``--trace 1`` the
rounds alternate between untraced and traced ones, spans go to
``.bench_out/``, and the JSON holds the per-layer metrics instead: per
traced round, so op counts are exact, plus the tracing overhead and a
cold-start probe of the interpreter and of the package import.
``--smoke`` shrinks every workload so a run takes seconds.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 7
COLD_START_REPS = (10, 3)  # (full, smoke) subprocess pairs
MIN_BEYOND_TAIL = 10
# metrics are taken over the fastest tenth of the rounds (at least three)
KEPT_FRACTION = 0.1
MIN_KEPT_ROUNDS = 3
KEPT_REQUESTS = 20  # requests whose spans are written out, after the set-up's


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, for the benchmark's own test")
    return parser.parse_args(argv)


def least_disturbed(timed_rounds):
    """The fastest tenth of the (wall seconds, stats) rounds, at least three.

    Every round does the same work, so a slow round is one that other
    tenants of a shared machine slowed down; their load drifts over
    seconds to minutes and would otherwise move every timing of a run.
    """
    keep = max(MIN_KEPT_ROUNDS, int(len(timed_rounds) * KEPT_FRACTION))
    return [stats for _, stats in sorted(timed_rounds, key=lambda r: r[0])[:keep]]


def tail(samples):
    """(value, percentile, sample count) of the highest percentile that
    still has MIN_BEYOND_TAIL samples beyond it; the maximum if too few."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= MIN_BEYOND_TAIL:
        return ordered[-1], 100.0, n
    return ordered[n - 1 - MIN_BEYOND_TAIL], 100.0 * (n - MIN_BEYOND_TAIL) / n, n


def timed_setup(make):
    """Build the workload SETUP_REPS times; keep the last, report the median time."""
    times, state = [], None
    for _ in range(SETUP_REPS):
        if state is not None:
            state.close()
        start = perf_counter()
        state = make()
        times.append(perf_counter() - start)
    return state, median(times)


def end_to_end(workload, make, seconds):
    # imported late: these modules import paircommit, which main puts on the path
    from workloads import Recorder

    state, setup_s = timed_setup(make)
    rec, timed_rounds = Recorder(), []
    try:
        start = perf_counter()
        while not timed_rounds or perf_counter() - start < seconds:
            t0 = perf_counter()
            stats = state.round(rec)
            timed_rounds.append((perf_counter() - t0, stats))
    finally:
        state.close()
    rounds = least_disturbed(timed_rounds)
    latencies_ms = [s * 1e3 for r in rounds for s in r.latencies]
    p50_ms = median(latencies_ms) if latencies_ms else 0.0
    tail_ms, tail_pct, samples = tail(latencies_ms)
    for name, value, unit in type(state).named(rounds, p50_ms, tail_ms):
        print(f"{workload} {name} = {value:.6g} {unit}")
    print(f"{workload} error_rate = {rec.failed / max(rec.attempted, 1):.6g} "
          f"({rec.failed} of {rec.attempted} operations)")
    print(f"{workload} figures over the fastest {len(rounds)} of {len(timed_rounds)} rounds; "
          f"tail = p{tail_pct:.2f} of {samples} samples")
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ops_per_s": (median(r.ops_per_s for r in rounds), "1/s"),
        "op_p50_ms": (p50_ms, "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "batch_s": (median(r.batch_seconds for r in rounds), "s"),
    }
    return rec, metrics


def cold_start(reps):
    """Wall time of bare interpreter starts and of starts that import the CLI."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    bare, imported = [], []
    for _ in range(reps):
        for code, out in (("pass", bare), ("import paircommit.cli", imported)):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
            out.append((perf_counter() - start) * 1e3)

    def iqr(values):
        q1, _, q3 = quantiles(values, n=4)
        return q3 - q1

    return {
        "cli.interpreter_start_ms": median(bare),
        "cli.interpreter_start_ms_iqr": iqr(bare),
        "cli.import_ms": median(imported) - median(bare),
        "cli.import_ms_iqr": iqr(imported),
        "cli.cold_start_samples": reps,
    }


def per_round(total, rounds):
    return total // rounds if isinstance(total, int) and total % rounds == 0 else total / rounds


def layer_values(names, totals, rounds, prefix=""):
    calls, total, self_time, extra = totals
    values = {}
    for name in names:
        values[f"{prefix}{name}.calls"] = per_round(calls.get(name, 0), rounds)
        values[f"{prefix}{name}.ms"] = total.get(name, 0.0) * 1e3 / rounds
        values[f"{prefix}{name}.self_ms"] = self_time.get(name, 0.0) * 1e3 / rounds
    values[f"{prefix}curve.final_exp.ms"] = extra.get("curve.final_exp.ms", 0.0) / rounds
    for key in ("fileio.bytes_read", "fileio.bytes_written"):
        values[f"{prefix}{key}"] = per_round(int(extra.get(key, 0)), rounds)
    tested = extra.get("forgery.census.pairs_tested", 0)
    values[f"{prefix}forgery.census.accept_ratio"] = (
        extra["forgery.census.accepting_pairs"] / tested if tested else 0.0)
    return values


def per_layer(workload, make, seconds, seed, smoke):
    import spans
    from workloads import Recorder

    tracer = spans.Tracer(keep_traces=1 + KEPT_REQUESTS)
    with spans.installed(tracer), tracer.span("bench.setup"):
        make().close()
    setup_totals = tracer.take()

    state = make()
    rec, plain_s, traced_s = Recorder(), [], []
    try:
        start = perf_counter()
        while not traced_s or perf_counter() - start < seconds:
            t0 = perf_counter()
            state.round(rec)
            plain_s.append(perf_counter() - t0)
            with spans.installed(tracer):
                t0 = perf_counter()
                state.round(rec, tracer.span)
                traced_s.append(perf_counter() - t0)
    finally:
        state.close()
    rounds = len(traced_s)

    values = layer_values(tracer.names, tracer.take(), rounds)
    values.update(layer_values(tracer.names, setup_totals, 1, prefix="setup."))
    values.update(cold_start(COLD_START_REPS[smoke]))
    plain_ms, traced_ms = median(plain_s) * 1e3, median(traced_s) * 1e3
    values.update({
        "bench.round_ms": plain_ms,
        "bench.traced_round_ms": traced_ms,
        "bench.trace_overhead_ms": traced_ms - plain_ms,
        "bench.trace_overhead_pct": 100.0 * (traced_ms - plain_ms) / plain_ms,
        "bench.traced_rounds": rounds,
    })
    out = ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write(str(out))
    print(f"{workload} spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}")
    print(f"{workload} tracing overhead = {traced_ms - plain_ms:.3f} ms per round "
          f"({plain_ms:.3f} ms untraced, {traced_ms:.3f} ms traced, {rounds} traced rounds)")
    return rec, values


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "paircommit" / "__init__.py").is_file():
        print(f"error: no paircommit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cls = WORKLOADS[args.workload]

    def make():
        return cls(args.seed, args.smoke)

    if args.trace:
        rec, values = per_layer(args.workload, make, args.seconds, args.seed, args.smoke)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        rec, values = end_to_end(args.workload, make, args.seconds)
        metrics = {}
        for m in spec["end_to_end"]:
            value, unit = values[m["name"]]
            if unit != m["unit"]:
                raise ValueError(f"{m['name']} is measured in {unit}, not {m['unit']}")
            metrics[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": rec.failed == 0, "attempted": rec.attempted,
                      "failed": rec.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
