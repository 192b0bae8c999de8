"""End-to-end benchmark of the optimizer service, from outside the program.

Usage (from the repository root)::

    python3 bench_e2e/run.py --workload mpq-cold --seed 1 --seconds 25 --trace 0

Workloads: ``mpq-cold``, ``serve-hot``, ``net-churn``, or ``all`` (each
workload untraced and traced, one after another).  With ``--trace 0`` the
workload runs once, untraced, and the end-to-end metrics are reported.
With ``--trace 1`` it runs untraced and then once more with timing
wrappers installed around the program's layers; the per-layer metrics come
from that traced run.  Every answer is checked against a serial reference
computed outside the timed phase, and the DP runs the front doors count
against one per unique fingerprint; a mismatch makes the run fail.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every answer was right.  A full report (environment, notes,
both metric sets) is written to ``.bench_e2e_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_e2e_out"
WORKLOAD_NAMES = ("mpq-cold", "serve-hot", "net-churn")


def bootstrap() -> None:
    """Import the program from this checkout's ``src/`` and nowhere else."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {source}/repro")
    sys.path[:0] = [str(source), str(HERE)]
    os.chdir(ROOT)
    import repro

    if Path(repro.__file__).resolve().parent != source / "repro":
        sys.exit(f"error: imported repro from {repro.__file__}, not {source}")


def make_workload(name: str, config: dict, seed: int, seconds: float):
    if name == "mpq-cold":
        from mpq_cold import MpqCold

        return MpqCold(config[name], seed)
    if name == "serve-hot":
        from serve_hot import ServeHot

        return ServeHot(config[name], seed, seconds)
    from net_churn import NetChurn

    return NetChurn(config[name], seed, seconds)


def check(workload, runs) -> list[str]:
    """Every failed or wrong operation of ``runs``, one line each."""
    from common import check_answer

    failures = []
    references = workload.references(runs)
    for label, run in zip(("untraced", "traced"), runs):
        for rid, error in run.errors.items():
            failures.append(f"{label} {rid}: {error}")
        for rid, result in run.results.items():
            problem = check_answer(result, references[rid], run.specs[rid])
            if problem is not None:
                failures.append(f"{label} {rid}: {problem}")
        if run.dp_counted != run.dp_expected:
            failures.append(
                f"{label}: {run.dp_counted} DP runs for "
                f"{run.dp_expected} unique fingerprints"
            )
    return failures


def traced_pass(workload, seconds: float, spans_dir: Path):
    """Run once with wrappers installed; restore them; load every span."""
    from tracing import CLIENT_TARGETS, Installation, SpanForest, Tracer, load_spans

    tracer = Tracer(str(spans_dir))
    installation = Installation(tracer, CLIENT_TARGETS)
    try:
        run = workload.run(seconds, tracer)
    finally:
        installation.remove()
    tracer.dump()
    spans = [span for span in load_spans(str(spans_dir)) if str(span[2]).startswith("T")]
    return run, SpanForest(spans), installation.restored()


def run_workload(name: str, config: dict, seed: int, seconds: float, trace: bool) -> dict:
    from common import end_to_end, environment, load_average, segment_p50
    from layers import per_layer

    out_dir = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    env = environment()
    env["load_before"] = load_average()
    workload = make_workload(name, config, seed, seconds)
    # The inputs live for the whole run; keep the collector from rescanning them.
    gc.freeze()
    untraced = workload.run(seconds)
    runs = [untraced]
    report: dict = {"workload": name, "seed": seed, "seconds": seconds}
    report["end_to_end"] = end_to_end(untraced)
    if trace:
        traced, forest, not_restored = traced_pass(workload, seconds, out_dir / "spans")
        runs.append(traced)
    failures = check(workload, runs)
    if trace:
        for wrapped in not_restored:
            failures.append(f"wrapper left installed on {wrapped}")
        differing = [
            rid
            for rid, result in traced.results.items()
            if rid in untraced.results
            and result != untraced.results[rid]
        ]
        if differing:
            failures.append(
                f"{len(differing)} plans differ between traced and untraced runs"
            )
        overhead = segment_p50(traced) / segment_p50(untraced)
        counters = dict(traced.counters, trace_overhead=overhead)
        report["per_layer"] = per_layer(forest, counters)
        report["traced_notes"] = traced.notes
    env["load_after"] = load_average()
    env["executor"] = config[name]["executor"]
    env["partitions_per_miss"] = untraced.miss_partitions
    env["overloaded"] = max(env["load_before"][0], env["load_after"][0]) > env["nproc"]
    report["environment"] = env
    report["notes"] = untraced.notes
    report["attempted"] = sum(run.attempted for run in runs)
    report["failures"] = failures
    (out_dir / "report.json").write_text(json.dumps(report, indent=2, default=str))
    return report


def print_report(report: dict) -> None:
    from layers import PER_LAYER

    from common import END_TO_END

    units = dict(END_TO_END)
    name = report["workload"]
    env = report["environment"]
    print(f"== {name} (seed {report['seed']}, {report['seconds']} s)")
    print(
        f"   nproc {env['nproc']} affinity {env['affinity']} python {env['python']} "
        f"numpy {env['numpy']} backends {env['backends']}"
    )
    print(f"   load average before {env['load_before']} after {env['load_after']}")
    if env["overloaded"]:
        print(f"   WARNING: load average exceeded nproc={env['nproc']}; figures suspect")
    for key, value in report["notes"].items():
        if key != "tail_ms":
            print(f"   {key}: {value}")
    print(f"   partitions per miss: {env['partitions_per_miss']}")
    for metric, value in report["end_to_end"].items():
        print(f"   {metric} = {value:.6g} {units[metric]}")
    tail = report["notes"]["tail_ms"]
    print(
        f"   tail_ms = {tail['value']:.6g} ms (nearest-rank p{tail['percentile']} of "
        f"n={tail['n']}, 10 samples beyond; reported, not gated)"
    )
    if "per_layer" in report:
        for metric, unit in PER_LAYER:
            print(f"   [traced] {metric} = {report['per_layer'][metric]:.6g} {unit}")
    print(f"   attempted {report['attempted']}, failed {len(report['failures'])}")
    for failure in report["failures"][:20]:
        print(f"   FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()
    config = json.loads((HERE / "config.json").read_text())
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    trace = bool(args.trace) or args.workload == "all"
    reports = []
    for name in names:
        report = run_workload(name, config, args.seed, args.seconds, trace)
        print_report(report)
        reports.append(report)

    from common import END_TO_END
    from layers import PER_LAYER

    units = dict(PER_LAYER) | dict(END_TO_END)
    failed = sum(len(report["failures"]) for report in reports)
    metrics = {}
    for report in reports:
        prefix = f"{report['workload']}." if len(reports) > 1 else ""
        if args.trace or len(reports) > 1:
            for metric, value in report["per_layer"].items():
                metrics[prefix + metric] = {"value": value, "unit": units[metric]}
        if not args.trace or len(reports) > 1:
            for metric, value in report["end_to_end"].items():
                metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(report["attempted"] for report in reports),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
