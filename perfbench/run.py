"""Run one benchmark workload on this checkout and print its result.

Usage, from the repository root::

    python3 perfbench/run.py --workload fleet-warm --seed 1 --seconds 12 --trace 0

The run imports the package from ``src/``, sets the workload up, then
runs timed units of work for ``--seconds`` (never fewer than the
workload's fixed digest units) and checks every unit's outputs. Set-up
is repeated in two fresh processes and ``setup_s`` is the median of the
three. With ``--trace 1`` a fresh process repeats set-up and the digest
units with every layer boundary wrapped (:mod:`tracer`); its simulated
outputs must hash to the untraced run's ``sim_digest``.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the ``end_to_end`` metrics of
``BENCHMARK.json`` untraced, its ``per_layer`` metrics traced). The
lines before it hold the full report: workload-specific figures, the
complete per-layer table with absent layers as ``null``, the digest and
machine metadata. The exit code is nonzero when any check fails.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: where the traced pass writes its spans (listed in .gitignore)
TRACE_DIR = ROOT / ".perfbench"
#: set-up is timed in this process plus this many fresh ones
SETUP_CHILDREN = 2
CHILD_TIMEOUT_S = 170

# one process, one thread: BLAS must not start a worker pool
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def import_program(tracer=None):
    """Import the package from this checkout's ``src/`` (timed as the
    ``import`` span when traced); exit nonzero if it is not there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    with tracer.span("import") if tracer is not None else nullcontext():
        import repro
        import workloads
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    return workloads


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_child(args, *extra) -> dict:
    """Run this script in a fresh process and return its last JSON line."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), *extra,
    ]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"child {' '.join(extra)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_digest(units) -> str:
    return hashlib.blake2b(
        "".join(u.digest for u in units).encode(), digest_size=16
    ).hexdigest()


def setup_sample() -> dict:
    """Seconds since the script started, and the host speed right after."""
    from machine import probe

    elapsed = time.perf_counter() - PROCESS_START
    return {"setup_s": elapsed, "probe_s": (probe() + probe()) / 2}


def run_units(workload, minimum: int, seconds: float, tracer=None):
    """Timed units with a speed probe before the first and after each:
    ``minimum`` of them, then more until ``seconds`` have passed. Also
    returns the peak RSS once the first ``minimum`` units are done."""
    from machine import REFERENCE_PROBE_S, probe

    units, probes, rss = [], [probe()], 0.0
    start = time.perf_counter()
    while len(units) < minimum or time.perf_counter() - start < seconds:
        decide_mark = len(workload.decide_samples)
        place_mark = len(workload.place_samples)
        unit = workload.unit(len(units), tracer)
        probes.append(probe())
        unit.scale = REFERENCE_PROBE_S / statistics.fmean(probes[-2:])
        unit.decide_samples = workload.decide_samples[decide_mark:]
        unit.place_samples = workload.place_samples[place_mark:]
        units.append(unit)
        if len(units) == minimum:
            # a high-water mark after a fixed amount of work: later
            # units only run while time is left, and caches keep growing
            rss = peak_rss_mb()
    return units, rss


# ----------------------------------------------------------------------
# the three process roles
# ----------------------------------------------------------------------
def setup_only(args) -> None:
    """Child: import and set up, report the seconds that took."""
    workloads = import_program()
    workloads.make_workload(args.workload, args.seed).setup()
    print(json.dumps(setup_sample()))


def traced_pass(args) -> None:
    """Child: set-up and the digest units with every boundary wrapped."""
    import metrics
    from tracer import Tracer

    tracer = Tracer()
    workloads = import_program(tracer)
    tracer.install()
    try:
        workload = workloads.make_workload(args.workload, args.seed, timing=False)
        workload.setup(tracer)
        setup_wall = time.perf_counter() - PROCESS_START
        setup = tracer.snapshot()
        counts_before = dict(tracer.counts)
        units, _ = run_units(workload, args.traced_units, 0.0, tracer)
    finally:
        tracer.uninstall()
    after = tracer.snapshot()
    timed = {}
    for name, (calls, total, self_time) in after.items():
        c0, t0, s0 = setup.get(name, (0, 0.0, 0.0))
        if calls > c0:
            timed[name] = (calls - c0, total - t0, self_time - s0)
    counts = {k: v - counts_before.get(k, 0) for k, v in tracer.counts.items()}
    layers = metrics.per_layer(
        workload, setup, timed, counts, units, args.untraced_wall, setup_wall
    )
    TRACE_DIR.mkdir(exist_ok=True)
    tracer.write(TRACE_DIR / f"trace-{args.workload}-{args.seed}.npz")
    print(json.dumps({
        "digest": run_digest(units),
        "errors": [e for u in units for e in u.errors],
        "absent_boundaries": tracer.absent,
        "layers": layers,
    }))


def main_run(args) -> int:
    import metrics
    from machine import metadata

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = import_program()
    workload = workloads.make_workload(args.workload, args.seed)
    workload.setup()
    setup = setup_sample()
    workload.reset_samples()

    n_digest = workload.digest_units
    units, rss = run_units(workload, n_digest, args.seconds)
    errors = [e for u in units for e in u.errors]
    digest = run_digest(units[:n_digest])
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "sim_digest": digest,
        "extras": metrics.extras(workload, units),
    }

    if args.trace:
        untraced_wall = sum(u.wall * u.scale for u in units[:n_digest])
        traced = run_child(
            args, "--traced-units", str(n_digest),
            "--untraced-wall", repr(untraced_wall),
        )
        errors += traced["errors"]
        if traced["digest"] != digest:
            errors.append(
                f"traced sim_digest {traced['digest']} != untraced {digest}"
            )
        layers = traced["layers"]
        report["layers"] = layers
        report["absent"] = sorted(k for k, v in layers.items() if v is None)
        report["absent_boundaries"] = traced["absent_boundaries"]
        declared = spec["per_layer"]
        values = {m["name"]: layers[m["name"]] for m in declared}
    else:
        setups = [setup] + [
            run_child(args, "--setup-only") for _ in range(SETUP_CHILDREN)
        ]
        report["setup_samples"] = setups
        declared = spec["end_to_end"]
        values = metrics.end_to_end(workload, units, setups, rss)
        report["raw"] = metrics.end_to_end(workload, units, setups, rss, normalise=False)
    report["meta"] = metadata(ROOT)
    print(f"perfbench {workload.name} seed={args.seed}: {len(units)} units, "
          f"sim_digest {digest}")
    for error in errors:
        print(f"CHECK FAILED: {error}")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(u.attempted for u in units),
        "failed": sum(u.failed for u in units),
        "metrics": {
            m["name"]: {
                # an absent layer reads as zero work in the result line
                "value": values[m["name"]] if values[m["name"]] is not None else 0,
                "unit": m["unit"],
            }
            for m in declared
        },
    }))
    return 0 if not errors else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--traced-units", type=int, default=0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--untraced-wall", type=float, default=0.0,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        setup_only(args)
        return 0
    if args.traced_units:
        traced_pass(args)
        return 0
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main())
