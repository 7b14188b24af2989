"""spinboson benchmark: one closed-loop workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

A single client runs the workload's operations one after another, pass
after pass, until ``--seconds`` of measurement is used up (at least one
pass).  Every output is checked after the last pass, outside the timed
region.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1``
untraced and traced passes alternate, the metrics are the per-layer ones,
and the spans are written to ``perfbench/out/``.

Times are reported in reference-core seconds (see probe.py): measured
wall time corrected for the speed the shared CPU ran at meanwhile.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from probe import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: fresh interpreters per run whose import time gives setup_s
SETUP_SAMPLES = 5

#: reference-core seconds per operation at the seed commit (medians of the
#: baseline runs); op_slowdown_max divides each operation's median by these
REFERENCE_OP_S = {
    "rates": 0.92, "rates-hi": 0.76, "evolve": 0.85, "recoherence-map": 0.65,
    "blp": 1.8, "unravel": 10.5, "unravel-small": 0.72,
    "verify-map": 3.3, "verify-rates": 1.1, "crossings": 0.59,
}

IMPORT_SNIPPET = ("import time; t = time.perf_counter(); "
                  "import spinboson, spinboson.cli; "
                  "print(t, time.perf_counter())")


@dataclass
class Pass:
    """One pass: each operation's run intervals (perf_counter) and outputs.

    An operation with ``repeat`` > 1 runs that many times in a row; its
    time in the pass is the median of its runs.
    """

    intervals: dict[str, list[tuple[float, float]]]
    outputs: dict[str, list]
    traced: bool = False

    def normalized(self, probe: SpeedProbe) -> dict[str, float]:
        return {name: statistics.median(probe.normalize(*run) for run in runs)
                for name, runs in self.intervals.items()}

    def total(self, probe: SpeedProbe | None = None) -> float:
        """Time of every run in the pass, normalized when given a probe."""
        return sum(probe.normalize(start, end) if probe else end - start
                   for runs in self.intervals.values()
                   for start, end in runs)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("figures", "ensemble", "oracles"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def import_package() -> str | None:
    """Import spinboson from this checkout's src/; returns an error or None."""
    if not (SRC / "spinboson" / "__init__.py").is_file():
        return f"no spinboson package under {SRC}"
    sys.path.insert(0, str(SRC))
    import spinboson
    if Path(spinboson.__file__).resolve().parent != SRC / "spinboson":
        return f"imported spinboson from {spinboson.__file__}, not {SRC}"
    return None


def import_samples(probe: SpeedProbe, importtime: bool) -> list[dict]:
    """Import spinboson in fresh interpreters; one timing dict per sample.

    Each sample has ``setup_s``; with ``importtime`` also the summed
    ``-X importtime`` self times of the scipy, numpy and spinboson modules,
    all scaled by the core's slowdown during the import.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    flags = ["-X", "importtime"] if importtime else []
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, *flags, "-c", IMPORT_SNIPPET],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        start, end = map(float, proc.stdout.split()[-2:])
        sample = {"setup_s": probe.normalize(start, end)}
        if importtime:
            slowdown = probe.slowdown(start, end)
            selfs = Counter()
            for line in proc.stderr.splitlines():
                m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)", line)
                if m:
                    selfs[m.group(2).split(".")[0]] += int(m.group(1)) * 1e-6
            sample.update({f"import.{pkg}_s": selfs[pkg] / slowdown
                           for pkg in ("scipy", "numpy")})
            sample["import.spinboson_self_s"] = selfs["spinboson"] / slowdown
        samples.append(sample)
    return samples


def run_pass(ops, k: int, tracer=None) -> Pass:
    """One pass over the operations.

    An operation that raises gets the output None, which fails its check.
    """
    gc.collect()
    intervals, outputs = {}, {}
    for op in ops:
        fn = op.run
        if tracer is not None:
            tracer.op_id += 1
            fn = tracer.wrap(f"op.{op.name}", fn)
        intervals[op.name], outputs[op.name] = [], []
        for r in range(op.repeat):
            start = time.perf_counter()
            try:
                out = fn(f"{k}.{r}")
            except Exception:
                traceback.print_exc()
                out = None
            intervals[op.name].append((start, time.perf_counter()))
            outputs[op.name].append(out)
    return Pass(intervals, outputs, tracer is not None)


def measure(ops, seconds: float, tracer=None) -> tuple[list[Pass], list]:
    """Run passes until the next one would overrun ``seconds``.

    With a tracer, untraced and traced passes alternate, starting untraced,
    with at least one of each.  Returns the passes and, per traced pass,
    the tracer's totals.
    """
    passes, totals = [], []
    start = time.perf_counter()
    while True:
        k = len(passes)
        if tracer is not None and k % 2 == 1:
            tracer.totals.clear()
            tracer.install()
            try:
                passes.append(run_pass(ops, k, tracer))
            finally:
                tracer.uninstall()
            totals.append(dict(tracer.totals))
        else:
            passes.append(run_pass(ops, k))
        elapsed = time.perf_counter() - start
        if tracer is not None and not totals:
            continue
        if elapsed + elapsed / len(passes) > seconds:
            return passes, totals


def check_outputs(ops, passes: list[Pass]) -> tuple[int, int, Counter]:
    """Check every output; returns (attempted, failed, work counts of pass 0)."""
    attempted = failed = 0
    counts = Counter()
    for k, p in enumerate(passes):
        for op in ops:
            for out in p.outputs[op.name]:
                attempted += 1
                try:
                    if out is None:
                        raise RuntimeError(f"{op.name} raised")
                    work = op.check(out)
                except Exception as err:
                    failed += 1
                    print(f"check failed: pass {k} {op.name}: {err}",
                          file=sys.stderr)
                    continue
                if k == 0:
                    counts.update(work)
    return attempted, failed, counts


def op_metric(name: str) -> str:
    """Metric name of one operation's time: rates-hi -> rates_hi_s."""
    return name.replace("-", "_") + "_s"


def median_by_op(times: list[dict]) -> dict[str, float]:
    return {name: statistics.median(t[name] for t in times)
            for name in times[0]}


def end_to_end(op_times, setup, failed, attempted, rss_mb) -> dict:
    op_s = median_by_op(op_times)
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in setup), "s"),
        "wall_s": (statistics.median(sum(t.values()) for t in op_times), "s"),
        "op_slowdown_max": (max(t / REFERENCE_OP_S[name]
                                for name, t in op_s.items()), "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(passes, probe, totals, setup, counts, failed,
              attempted) -> dict:
    from tracing import layer_metrics
    plain = [p.normalized(probe) for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    # reference-core seconds per measured second, per traced pass
    scales = [p.total(probe) / p.total() for p in traced]
    layers = [layer_metrics(t, s) for t, s in zip(totals, scales)]
    metrics = {}
    for key in ("import.scipy_s", "import.numpy_s", "import.spinboson_self_s"):
        metrics[key] = (statistics.median(s[key] for s in setup), "s")
    for key in layers[0]:
        unit = ("s" if key.endswith("_s") else
                "us" if ".us_per_" in key else
                "ns" if ".ns_per_" in key else "count")
        metrics[key] = (statistics.median(m[key] for m in layers), unit)
    csv_cli_s = sum(metrics[f"cli.{c}.self_s"][0] for c in
                    ("rates", "evolve", "unravel", "recoherence-map"))
    metrics["cli.csv_rows"] = (counts["csv_rows"], "count")
    metrics["cli.csv_bytes"] = (counts["csv_bytes"], "bytes")
    metrics["cli.csv_mb_per_s"] = (counts["csv_bytes"] / 1e6 / csv_cli_s
                                   if csv_cli_s else 0.0, "MB/s")
    plain_wall = statistics.median(p.total(probe) for p in passes
                                   if not p.traced)
    traced_wall = statistics.median(p.total(probe) for p in traced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    metrics["probe.slowdown"] = (statistics.median(
        p.total() / p.total(probe) for p in passes), "ratio")
    metrics["probe.wall_raw_s"] = (statistics.median(
        p.total() for p in passes if not p.traced), "s")
    op_s = median_by_op(plain)
    for name in REFERENCE_OP_S:
        metrics[op_metric(name)] = (op_s.get(name, 0.0), "s")
    metrics["fail_ratio"] = (failed / attempted, "ratio")
    return metrics


def write_spans(tracer, totals, workload: str, seed: int) -> Path:
    path = OUT / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": workload, "seed": seed,
        "fields": ["op_id", "span_id", "parent_id", "name", "start_s",
                   "end_s", "self_s"],
        "spans": tracer.spans,
        "totals_per_traced_pass": totals,
    }))
    return path


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    error = import_package()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    ops = WORKLOADS[args.workload](args.seed, OUT)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    with SpeedProbe() as probe:
        passes, totals = measure(ops, args.seconds, tracer)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup = import_samples(probe, importtime=bool(args.trace))
    attempted, failed, counts = check_outputs(ops, passes)

    plain = [p.normalized(probe) for p in passes if not p.traced]
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced"
          f" and {len(passes) - len(plain)} traced passes, {attempted} "
          f"operations, {failed} failed")
    for name, t in median_by_op(plain).items():
        print(f"  {op_metric(name):<36} {t:14.6g} s (untraced median)")
    if tracer is not None:
        metrics = per_layer(passes, probe, totals, setup, counts, failed,
                            attempted)
        print(f"  spans written to "
              f"{write_spans(tracer, totals, args.workload, args.seed)}")
    else:
        metrics = end_to_end(plain, setup, failed, attempted, rss_mb)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
