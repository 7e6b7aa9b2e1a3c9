"""esnsmc benchmark: closed-loop, in-process runs of the ``esn-smc`` CLI.

    python3 bench/run.py --workload iid --seed 1 --seconds 55 --trace 0

Run from the repository root.  One process runs one workload: it builds
the seeded inputs, then repeats the workload's round of CLI commands
(``esnsmc.cli.main``, one at a time) until ``--seconds`` are used, gating
every command's output.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs each command twice, plain and traced, checks that
both write the same bytes, and reports the per-layer metrics.
``--workload all`` runs every workload in its own process and prints a
table.  ``--tiny`` shrinks the inputs for the self-test.  The last line
of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# One BLAS thread: the loop is single-process and one command at a time,
# and on a 2-core machine idle OpenBLAS threads spinning beside the main
# thread made the timings noisier.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

WORKLOADS = ("iid", "esnsm")
E2E_UNITS = {"setup_s": "s", "fit_rel": "ratio", "round_rel": "ratio", "peak_rss_mb": "MB"}
SETUP_REPEATS = 3
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import esnsmc.cli; print(time.perf_counter() - t)"
)


def _import_seconds() -> float:
    """Import time of ``esnsmc.cli`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=ROOT,
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def _run_ops(cli, wl, ops, tracer=None, op_id=0):
    """Run commands in order; return seconds and failure messages per command."""
    times, failures = [], []
    for op in ops:
        for path in (op.out, *op.extra_outputs):
            path.unlink(missing_ok=True)
        cfg_path = op.out.with_suffix(".config.json")
        cfg_path.write_text(json.dumps(op.config))
        argv = [op.kind, "--config", str(cfg_path), "--out", str(op.out)]
        if tracer is not None:
            tracer.install(op_id)
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed command, not a dead benchmark
            rc = None
            failures.append([f"{op.kind} raised:\n{traceback.format_exc()}"])
        finally:
            times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.uninstall()
        if rc is not None:
            failures.append(wl.gate(op, rc))
    return times, failures


def _differing_outputs(plain, traced) -> list:
    """Output files of ``traced`` whose bytes differ from ``plain``'s."""
    return [
        fb.name
        for fa, fb in zip((plain.out, *plain.extra_outputs), (traced.out, *traced.extra_outputs))
        if not (fa.is_file() and fb.is_file() and fa.read_bytes() == fb.read_bytes())
    ]


def _info(workload: str) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lines = sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "esnsmc").glob("*.py"))
    )
    return {
        "workload": workload,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "src_lines": lines,
    }


def run_workload(args, work: Path) -> int:
    # set-up: import (here, then again in fresh interpreters), inputs and
    # warm-up, each repeated; setup_s adds the medians
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    from esnsmc import cli

    imports = [time.perf_counter() - t0]
    imports += [_import_seconds() for _ in range(SETUP_REPEATS - 1)]
    import calibrate
    import tracing
    import workloads

    wl = workloads.Workload(args.workload, args.seed, work, args.tiny)
    prep = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.prepare()
        _, warm_failures = _run_ops(cli, wl, wl.warm_up_ops())
        prep.append(time.perf_counter() - t0)
    setup_s = statistics.median(imports) + statistics.median(prep)
    calibrate.seconds()  # first pass pays for lazy set-up; not counted

    tracer = tracing.Tracer() if args.trace else None
    by_kind, by_label, round_s, calib, overhead, layers = {}, {}, [], [], [], []
    attempted, failed = len(warm_failures), sum(1 for msgs in warm_failures if msgs)
    failures = [m for msgs in warm_failures for m in msgs]
    start = time.perf_counter()
    r, last = 0, 0.0
    while r == 0 or time.perf_counter() - start + last <= args.seconds:
        t0 = time.perf_counter()
        calib.append(calibrate.seconds())
        ops = wl.round_ops(r, work / "plain")
        times, bad = _run_ops(cli, wl, ops)
        attempted += len(ops)
        for op, sec in zip(ops, times):
            by_kind.setdefault(op.kind, []).append(sec)
            by_label.setdefault(op.label, []).append(sec)
        round_s.append(sum(times))
        if tracer is not None:
            traced = wl.round_ops(r, work / "traced")
            ttimes, tbad = _run_ops(cli, wl, traced, tracer, r)
            attempted += len(traced)
            for plain_op, traced_op, msgs in zip(ops, traced, tbad):
                msgs += [f"traced {traced_op.kind} wrote different bytes to {name}"
                         for name in _differing_outputs(plain_op, traced_op)]
            bad += tbad
            layers.append(tracing.round_metrics(tracer.take(), tracer.installed_names))
            overhead.append(statistics.fmean(
                tt - t for op, t, tt in zip(ops, times, ttimes) if op.kind == "fit"
            ))
        failed += sum(1 for msgs in bad if msgs)
        failures += [m for msgs in bad for m in msgs]
        last = time.perf_counter() - t0
        r += 1

    kind_mean = {kind: statistics.fmean(secs) for kind, secs in by_kind.items()}
    info = _info(args.workload)
    info.update(
        rounds=r,
        fit_s=kind_mean["fit"],
        round_s=statistics.fmean(round_s),
        calibration_s=statistics.fmean(calib),
        mean_s={label: statistics.fmean(secs) for label, secs in by_label.items()},
        fit_times_s=[round(t, 4) for t in by_kind["fit"]],
        compare_s=kind_mean.get("compare"),
        me_s=kind_mean.get("me"),
        setup_import_s=[round(t, 4) for t in imports],
        setup_inputs_s=[round(t, 4) for t in prep],
    )
    if tracer is not None:
        info["absent"] = tracer.absent
        values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        values["cli.compare.wall_s"] = info["compare_s"] or 0.0
        values["cli.me.wall_s"] = info["me_s"] or 0.0
        values["trace.fit_overhead_s"] = statistics.median(overhead)
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
    else:
        # Times are means over the run (total time / commands), the inverse
        # of throughput at the workload's fixed sizes.  A median jumps when
        # a seed's fits split between two SMC stage counts; the mean moves
        # with the share of each.  Divided by the mean calibration time of
        # the same run, they follow less of the machine's drifting speed.
        values = {
            "setup_s": setup_s,
            "fit_rel": info["fit_s"] / info["calibration_s"],
            "round_rel": info["round_s"] / info["calibration_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}

    for msg in failures[:20]:
        print(f"FAILED: {msg}", file=sys.stderr)
    print("info: " + json.dumps(info))
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one table and a merged result."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        info = next(json.loads(ln[6:]) for ln in lines if ln.startswith("info: "))
        print(f"{name}:")
        shown = dict(res["metrics"])
        if not args.trace:
            seconds = dict(info["mean_s"], compare=info["compare_s"], fit=info["fit_s"],
                           round=info["round_s"], calibration=info["calibration_s"])
            for label, secs in seconds.items():
                if secs is not None:
                    shown[f"{label}_s"] = {"value": secs, "unit": "s"}
        for metric, m in shown.items():
            print(f"  {metric:<48} {m['value']:>14.6g} {m['unit']}")
            merged["metrics"][f"{name}/{metric}"] = m
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)

    if not (SRC / "esnsmc" / "cli.py").is_file():
        print(f"no esnsmc sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return run_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
