"""konigmatch benchmark: one workload per run, end-to-end metrics by
default, per-layer metrics from a traced run with ``--trace 1``.

    python3 perfbench/run.py --workload cli-sparse --seed 1 --seconds 15
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Run from anywhere; the program is imported from ``src/`` next to this
directory.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it describe the machine and every metric with its unit.  Results
(and, for traced runs, every span) are also written under
``perfbench/out/``.  Timings are reported at a fixed reference speed, so
that the drifting speed of a shared host cancels out (``pace.py``).  See
``perfbench/README.md`` for the workloads and what each metric should
move.
"""

import time

START = time.perf_counter()  # set-up is timed from here, before any import

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# set-ups per run, this process's included: more when they are cheap
SETUP_SAMPLES = 3
CHEAP_SETUP_SAMPLES = 5
CHEAP_SETUP_S = 1.0

sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from pace import Pace  # noqa: E402


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only set up; print the seconds it took")
    return parser.parse_args(argv)


# -- set-up ---------------------------------------------------------------

def _setup(workload, pace, recorder=None) -> float:
    """Import konigmatch and fill its first-use caches; seconds since
    start, at reference speed.

    With a recorder, the calls made during set-up are traced.
    """
    try:
        import konigmatch  # noqa: F401
    except ImportError as exc:
        sys.exit(f"cannot import konigmatch from {ROOT / 'src'}: {exc}")
    if recorder is None:
        workload.warm()
    else:
        recorder.install()
        try:
            workload.warm()
        finally:
            recorder.uninstall()
    end = time.perf_counter()
    return pace.scaled(START, end, end - START - pace.spent)


def _fresh_setup_seconds(name: str) -> float:
    """Set-up time of a fresh process, which pays for imports again."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--setup-only"],
        capture_output=True, text=True, timeout=150, check=True)
    return float(done.stdout.split()[-1])


# -- metrics --------------------------------------------------------------

def _checked(timer) -> tuple[int, int, int, list[str]]:
    """Run every op's check.  Returns (units done, failed ops, wrong
    outputs, error messages)."""
    units = failed = wrong = 0
    errors = []
    for op in timer.ops:
        error = op.error
        if error is None:
            try:
                error = op.check(op.output)
            except Exception as exc:  # a malformed output fails its check
                error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None:
                wrong += 1
        op.done = 0
        if error is None:
            op.done = op.units(op.output) if callable(op.units) else op.units
            units += op.done
        else:
            failed += 1
            errors.append(f"{op.label}: {error}")
    return units, failed, wrong, errors


def _latencies(timer) -> dict:
    """Median and tail latency of the ops, in ms at reference speed.

    A failed op misses any latency limit, so it reads as no faster than
    the slowest successful op.  The tail is the highest percentile with at
    least ten ops beyond it; with fewer than 20 ops no such percentile lies
    above the median, so the slowest op is reported instead.
    """
    slowest_ok = max((op.seconds for op in timer.ops if op.error is None),
                     default=0.0)
    ranked = sorted(op.seconds * 1e3 if op.error is None
                    else max(op.seconds, slowest_ok) * 1e3
                    for op in timer.ops)
    n = len(ranked)
    mid = n // 2
    p50 = ranked[mid] if n % 2 else (ranked[mid - 1] + ranked[mid]) / 2
    if n >= 20:
        tail, percentile = ranked[n - 11], 100 * (n - 10) / n
    else:
        tail, percentile = ranked[-1], 100.0
    return {"p50": p50, "tail": tail, "tail_percentile": percentile,
            "samples": n}


def _machine(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    commit = None  # an exported checkout has no commit, only its sources
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit or None,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _declared(kind: str) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec[kind]


# -- runs -----------------------------------------------------------------

def _measure(workload, seconds: float, pace):
    """Whole passes, at least ``workload.min_passes``, until at least
    ``seconds`` of wall op time is measured.  Returns the timer, scaled to
    reference speed, and the number of ops at the end of each pass."""
    timer = workloads.Timer(pace)
    ends = []
    pace.start()
    try:
        while len(ends) < workload.min_passes or timer.seconds < seconds:
            workload.run_pass(len(ends), timer)
            ends.append(len(timer.ops))
    finally:
        pace.stop()
    timer.scale()
    return timer, ends


def _work_per_s(timer, ends, seconds=lambda op: op.seconds) -> float:
    """Median over passes of the work done by successful ops per second."""
    rates = []
    for start, end in zip([0] + ends, ends):
        ops = timer.ops[start:end]
        done = sum(op.done for op in ops)
        rates.append(done / sum(seconds(op) for op in ops))
    return statistics.median(rates)


def _end_to_end(args, workload, setup_s: float, pace) -> tuple[dict, dict]:
    samples = CHEAP_SETUP_SAMPLES if setup_s < CHEAP_SETUP_S else SETUP_SAMPLES
    setups = [setup_s] + [_fresh_setup_seconds(workload.name)
                          for _ in range(samples - 1)]
    timer, ends = _measure(workload, args.seconds, pace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    units, failed, wrong, errors = _checked(timer)
    lat = _latencies(timer)
    values = {
        "setup_s": statistics.median(setups),
        "work_per_s": _work_per_s(timer, ends),
        "op_p50_ms": lat["p50"],
        "op_tail_ms": lat["tail"],
        "peak_rss_mb": peak_rss_mb,
    }
    # the same figures in wall time, unscaled, for comparison
    wall = {"work_per_s": _work_per_s(timer, ends, lambda op: op.wall),
            "op_p50_ms": statistics.median(op.wall for op in timer.ops) * 1e3,
            "chunk_ms_median": statistics.median(pace.took) * 1e3}
    details = {"setup_samples_s": setups, "passes": len(ends),
               "timed_s": timer.seconds, "work_units": units,
               "work_unit": workload.unit, **lat, "wall": wall}
    return values, _summary(timer, failed, wrong, errors, details)


def _per_layer(args, workload, recorder, pace) -> tuple[dict, dict]:
    """Pass 0 untraced, traced, then untraced again.  Metrics come from
    the spans of set-up and of the traced pass; the faster untraced pass
    gives the rate the tracing overhead is measured against."""
    import tracing

    plain = [workloads.Timer(pace), workloads.Timer(pace)]
    traced = workloads.Timer(pace)
    pace.start()
    try:
        workload.run_pass(0, plain[0])
        recorder.install()
        try:
            workload.run_pass(0, traced)
        finally:
            recorder.uninstall()
        workload.run_pass(0, plain[1])
    finally:
        pace.stop()
    for timer in (*plain, traced):
        timer.scale()
    values = tracing.per_layer_metrics(recorder.names, recorder.arrays())
    # the faster untraced pass, so a cold first pass does not hide overhead
    plain_s = min(t.scaled_seconds() for t in plain)
    values["trace.rate_ratio"] = plain_s / traced.scaled_seconds()
    values["trace.spans"] = len(recorder)
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"{workload.name}-seed{args.seed}.spans.npz"
    recorder.save(spans_file)
    merged = workloads.Timer(pace)
    merged.ops = plain[0].ops + traced.ops + plain[1].ops
    units, failed, wrong, errors = _checked(merged)
    details = {"untraced_s": [t.scaled_seconds() for t in plain],
               "traced_s": traced.scaled_seconds(),
               "spans_file": str(spans_file.relative_to(ROOT)),
               "all_layer_values": values}
    return values, _summary(merged, failed, wrong, errors, details)


def _summary(timer, failed, wrong, errors, details) -> dict:
    return {"attempted": len(timer.ops), "failed": failed,
            "wrong_outputs": wrong, "errors": errors[:20], **details}


def run_one(args) -> int:
    workload_cls = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workload = workload_cls(args.seed, workdir)
    recorder = None
    if args.trace and not args.setup_only:
        import tracing

        recorder = tracing.Recorder()
    pace = Pace()
    pace.start()
    try:
        setup_s = _setup(workload, pace, recorder)
    finally:
        pace.stop()
    if args.setup_only:
        print(repr(setup_s))
        return 0
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            values, summary = _per_layer(args, workload, recorder, pace)
        else:
            values, summary = _end_to_end(args, workload, setup_s, pace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    declared = _declared("per_layer" if args.trace else "end_to_end")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    machine = _machine(args.seed)
    result = {"correct": summary["wrong_outputs"] == 0,
              "attempted": summary["attempted"], "failed": summary["failed"],
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(
        {"workload": args.workload, "machine": machine, "result": result,
         "details": summary}, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  work unit: {workload.unit}")
    print("machine " + json.dumps(machine))
    for name, metric in metrics.items():
        print(f"  {name:<45} {metric['value']:>14.6g} {metric['unit']}")
    if not args.trace:
        print(f"  op_tail_ms is p{summary['tail_percentile']:.4g} "
              f"of {summary['samples']} ops")
    print(f"  error_rate = {summary['failed']}/{summary['attempted']} "
          f"failed/attempted ops")
    for error in summary["errors"]:
        print(f"    failed: {error}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, then one table of every metric."""
    results = {}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name} exited {done.returncode}", file=sys.stderr)
            return done.returncode
        results[name] = json.loads(done.stdout.splitlines()[-1])
    names = list(results)
    print(f"\n{'metric':<32}" + "".join(f"{n:>16}" for n in names))
    metrics = next(iter(results.values()))["metrics"]
    for metric, first in metrics.items():
        row = "".join(f"{results[n]['metrics'][metric]['value']:>16.5g}"
                      for n in names)
        print(f"{metric + ' (' + first['unit'] + ')':<32}{row}")
    row = "".join(f"{workloads.WORKLOADS[n].unit + '/s':>16}" for n in names)
    print(f"{'  work_per_s counts':<32}{row}")
    row = "".join(f"{results[n]['failed']:>9}/{results[n]['attempted']:<6}"
                  for n in names)
    print(f"{'error_rate (failed/attempted)':<32}{row}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
