"""flagsplit benchmark: time to verdict on three request mixes.

Run from the root of a checkout:

    python3 flagbench/run.py --workload suite_mix --seed 1 --seconds 40 --trace 0
    python3 flagbench/run.py --workload all --seed 1 --seconds 40 --trace 1

With `--trace 0` the run measures end-to-end metrics with no tracing; with
`--trace 1` it replays a fixed part of the request list twice, untraced and
then with per-layer spans, and reports per-layer metrics and the tracing
overhead.  `--workload all` runs every workload in its own fresh process and
prints each one's metrics.  The last line of standard output is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
EXPECTED = BENCH_DIR / "expected.json"
MODULES = ("cli", "charts", "rootdata", "sections", "splitting")
# Set-up is short and the machine is shared, so it is repeated and the
# median reported.
SETUP_REPEATS = 21
# A p90 needs at least ten samples beyond it.
P90_MIN_REQUESTS = 100


class SetupError(RuntimeError):
    pass


def import_flagsplit():
    """A fresh import of flagsplit from the checkout's `src`."""
    for name in [k for k in sys.modules
                 if k == "flagsplit" or k.startswith("flagsplit.")]:
        del sys.modules[name]
    try:
        fs = SimpleNamespace(**{m: importlib.import_module(f"flagsplit.{m}")
                                for m in MODULES})
    except ImportError as exc:
        raise SetupError(f"cannot import flagsplit from {SRC}: {exc}") from exc
    origin = Path(fs.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"flagsplit imported from {origin}, not from {SRC}")
    return fs


def setup(workload, seed):
    """Import flagsplit and generate the request list, SETUP_REPEATS times.

    Returns the last import, its request list and the median set-up time.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # the previous import's modules are garbage now
        started = time.perf_counter()
        fs = import_flagsplit()
        rounds = workloads.generate(workload, seed)
        times.append(time.perf_counter() - started)
    return fs, rounds, statistics.median(times)


def run_rounds(runner, rounds, seconds=None, tracer=None):
    """Closed loop over whole rounds, one request at a time.

    Stops before a round that would not end within `seconds` at the pace of
    the round just run (the first round always runs), or after the last
    round.  Responses are checked after each round, outside its timing.
    """
    durations, round_seconds, problems = [], [], []
    attempted = failed = 0
    started = time.perf_counter()
    for batch in rounds:
        responses = []
        round_start = time.perf_counter()
        for req in batch:
            if tracer is not None:
                tracer.request_id = attempted + len(responses)
            t0 = time.perf_counter()
            try:
                response, error = runner.execute(req), None
            except Exception as exc:  # a raising request is a failed one
                response, error = None, f"{type(exc).__name__}: {exc}"
            durations.append(time.perf_counter() - t0)
            responses.append((response, error))
        now = time.perf_counter()
        round_seconds.append(now - round_start)
        for req, (response, error) in zip(batch, responses):
            try:
                found = [error] if error else runner.check(req, response)
            except (KeyError, TypeError, ValueError) as exc:
                found = [f"malformed response: {type(exc).__name__}: {exc}"]
            if found:
                failed += 1
                problems.append((req, found))
        attempted += len(batch)
        if seconds is not None and now - started + round_seconds[-1] > seconds:
            break
    return SimpleNamespace(
        durations=durations, round_seconds=round_seconds, attempted=attempted,
        failed=failed, problems=problems, wall=time.perf_counter() - started,
    )


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(result, requests, setup_s):
    """The end-to-end metrics of an untraced run, plus the figures that
    are printed but not in BENCHMARK.json.

    `requests` are the requests the run executed, in order.  The `best_`
    metrics cost every request at the fastest time its kind took in the
    run.  A shared machine only ever adds time to a job, and its speed can
    swing by 2x over seconds to minutes, so the fastest repetition is the
    steadiest reading of the job's own cost.  The wall-clock figures are
    printed beside them.
    """
    best = {}
    for req, seconds in zip(requests, result.durations):
        k = workloads.kind(req)
        best[k] = min(seconds, best.get(k, seconds))
    costs = [best[workloads.kind(req)] for req in requests]
    metrics = {
        "best_verdicts_per_s": (len(costs) / sum(costs), "1/s"),
        "best_verdict_p50_s": (statistics.median(costs), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (setup_s, "s"),
    }
    extra = {
        "verdicts_per_s": (result.attempted / sum(result.round_seconds), "1/s"),
        "verdict_p50_s": (statistics.median(result.durations), "s"),
        "failed_share": (result.failed / result.attempted, "ratio"),
    }
    if len(result.durations) >= P90_MIN_REQUESTS:
        p90 = statistics.quantiles(result.durations, n=10)[8]
        extra["verdict_p90_s"] = (p90, "s")
    return metrics, extra


def run_workload(workload, seed, seconds, trace):
    fs, rounds, setup_s = setup(workload, seed)
    requests = sum(len(batch) for batch in rounds)
    print(f"workload {workload} seed {seed}: {requests} requests in "
          f"{len(rounds)} rounds, sha256 {workloads.digest(rounds)}")
    OUT_DIR.mkdir(exist_ok=True)
    expected = json.loads(EXPECTED.read_text())
    runner = workloads.Runner(fs, expected, OUT_DIR / f"report-{workload}.json")
    if not trace:
        result = run_rounds(runner, rounds, seconds=seconds)
        done = [req for batch in rounds[:len(result.round_seconds)]
                for req in batch]
        metrics, extra = end_to_end(result, done, setup_s)
        samples = f"n={len(result.durations)}"
        kinds = f"{len(set(map(workloads.kind, done)))} kinds, n={len(done)}"
        notes = {
            "best_verdicts_per_s": kinds,
            "best_verdict_p50_s": kinds,
            "verdicts_per_s": f"{len(result.round_seconds)} rounds",
            "verdict_p50_s": samples,
            "verdict_p90_s": samples,
            "setup_s": f"median of {SETUP_REPEATS}",
            "failed_share": f"{result.failed}/{result.attempted}",
        }
    else:
        fixed = rounds[:workloads.WORKLOADS[workload][2]]
        untraced = run_rounds(runner, fixed)
        tracer = spans.Tracer()
        tracer.install()
        try:
            result = run_rounds(runner, fixed, tracer=tracer)
        finally:
            tracer.uninstall()
        metrics = spans.layer_metrics(tracer)
        metrics["trace.overhead_share"] = (
            result.wall / untraced.wall - 1.0, "ratio")
        extra = {"trace.spans": (len(tracer.start), "count"),
                 "trace.untraced_s": (untraced.wall, "s"),
                 "trace.traced_s": (result.wall, "s")}
        notes = {}
        result.attempted += untraced.attempted
        result.failed += untraced.failed
        result.problems += untraced.problems
        tracer.write(OUT_DIR / f"spans-{workload}.bin")
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:36} {value:>16.6g} {unit}{note}")
    if not trace and "verdict_p90_s" not in extra:
        print(f"  {'verdict_p90_s':36} {'-':>16} s  (omitted: "
              f"{len(result.durations)} requests < {P90_MIN_REQUESTS})")
    for req, found in result.problems[:5]:
        print(f"FAILED {json.dumps(req)[:200]}: {'; '.join(found)[:400]}",
              file=sys.stderr)
    return {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def run_all(args):
    """Every workload in its own fresh process, one after another."""
    summary = {}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            raise SetupError(f"workload {workload} exited {proc.returncode}")
        summary[workload] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in summary.values()),
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "metrics": {f"{w}.{name}": m for w, r in summary.items()
                    for name, m in r["metrics"].items()},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "flagsplit" / "__init__.py").is_file():
        print(f"no flagsplit sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run_workload(args.workload, args.seed, args.seconds,
                                  args.trace)
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
