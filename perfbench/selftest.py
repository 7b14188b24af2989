"""Self-test of the benchmark's tracing.

Usage (from the repository root)::

    python3 perfbench/selftest.py [workload ...]     # default: all three

For each workload it runs two traced passes and checks that:

* the two traced passes give identical work counts (calls, rate points,
  E1 calls, RK4 steps, member-steps, snapshots, CSV rows and bytes);
* uninstalling the wrappers restores every attribute of every spinboson
  module, so untraced passes run the unwrapped functions;
* the summed self times account for the traced operations' wall time
  (to SELF_TIME_TOLERANCE_S);
* spans nest across layers (on figures: cli.blp -> dynamics.blp_measure
  -> dynamics.build_kernels -> model.rate_table, with E1 calls below).

Exits 0 when every check holds, 1 otherwise.  Takes about two minutes.
"""

from __future__ import annotations

import sys

import run
from tracing import Tracer

SELF_TIME_TOLERANCE_S = 0.01


def module_state() -> dict:
    """Every attribute of every loaded spinboson module, by identity."""
    return {name: dict(vars(module)) for name, module in sys.modules.items()
            if name == "spinboson" or name.startswith("spinboson.")}


def work_counts(totals: dict) -> dict:
    return {(label, key): value for label, counter in totals.items()
            for key, value in counter.items() if key != "self_s"}


def span_chain(spans: list[tuple], names: list[str]) -> bool:
    """True if some span path runs through ``names``, parent to child."""
    by_id = {s[1]: s for s in spans}
    for s in spans:
        if s[3] != names[-1]:
            continue
        path, parent = [s[3]], s[2]
        while parent is not None:
            path.append(by_id[parent][3])
            parent = by_id[parent][2]
        path.reverse()
        if any(path[i:i + len(names)] == names for i in range(len(path))):
            return True
    return False


def check_workload(name: str, ops) -> list[str]:
    problems = []
    before = module_state()
    passes = []
    for k in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            done = run.run_pass(ops, k, tracer)
        finally:
            tracer.uninstall()
        _, failed, counts = run.check_outputs(ops, [done])
        if failed:
            problems.append(f"{failed} operations failed on traced pass {k}")
        passes.append((tracer, dict(tracer.totals), counts))
        self_sum = sum(t["self_s"] for t in tracer.totals.values())
        if abs(done.total() - self_sum) > SELF_TIME_TOLERANCE_S:
            problems.append(f"self times {self_sum:.4f} s do not account for "
                            f"the traced ops' {done.total():.4f} s")

    (t0, totals0, csv0), (_, totals1, csv1) = passes
    if work_counts(totals0) != work_counts(totals1) or csv0 != csv1:
        problems.append("work counts differ between two traced passes")
    after = module_state()
    if set(before) != set(after) or any(
            before[m].keys() != after[m].keys()
            or any(before[m][a] is not after[m][a] for a in before[m])
            for m in before):
        problems.append("module attributes not restored after uninstall")

    if name == "figures":
        chain = ["cli.blp", "dynamics.blp_measure", "dynamics.build_kernels",
                 "model.rate_table"]
        if not span_chain(t0.spans, chain):
            problems.append("no span chain " + " -> ".join(chain))
        if not totals0["specfun.expint_e1"]["calls"]:
            problems.append("no E1 calls counted under model.rate_table")
    print(f"{name}: {len(t0.spans)} spans per traced pass, "
          f"{len(work_counts(totals0))} work counts, "
          f"{'ok' if not problems else 'FAILED'}")
    return problems


def main(argv: list[str]) -> int:
    error = run.import_package()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    names = argv or list(WORKLOADS)
    run.OUT.mkdir(exist_ok=True)
    problems = []
    for name in names:
        ops = WORKLOADS[name](1, run.OUT)
        problems += [f"{name}: {p}" for p in check_workload(name, ops)]
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
