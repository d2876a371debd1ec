#!/usr/bin/env python3
"""anyon-otto benchmark: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload hot-cycle --seed 7 --seconds 20 --trace 0

Run from a checkout of the repository: the program is imported from its
``src/`` directory.  ``--trace 0`` measures the end-to-end metrics with no
instrumentation, with times rescaled to a reference CPU speed by a fixed
computation timed next to every operation (see speed.py).  ``--trace 1``
runs a fixed number of operations untimed by the window, once plain and once
with the module-boundary tracer installed, and reports the per-layer
metrics.  Every run of a workload with known failures also runs its
known-failure points, untimed.  Every operation's output is checked.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Outputs of a run
(its record and, when traced, its spans) go to ``.perfbench-out/``.

See perfbench/README.md for the workloads, metrics and known failures.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools to one thread before numpy can be imported.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# Relative to ROOT, which is the working directory of every run, so the
# output paths the program prints are the same in every checkout.
OUT_DIR = Path(".perfbench-out")

WORKLOADS = ("bose-fermi-sweep", "hot-cycle", "validate-grid", "stroke-ledger")

# (name, unit) in the order printed; the last JSON line carries exactly these.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("spectra.calls", "count"),
    ("spectra.self_s", "s"),
    ("spectra.levels", "count"),
    ("otto.calls", "count"),
    ("otto.self_s", "s"),
    ("otto.union_levels", "count"),
    ("thermo.calls", "count"),
    ("thermo.self_s", "s"),
    ("thermo.path_steps", "count"),
    ("closed_form.calls", "count"),
    ("closed_form.oracle_enumerations", "count"),
    ("special_functions.calls", "count"),
    ("special_functions.self_s", "s"),
    ("special_functions.terms", "count"),
    ("special_functions.slow_decay_warnings", "count"),
    ("validate.calls", "count"),
    ("validate.points", "count"),
    ("cli.calls", "count"),
    ("cli.bytes_written", "bytes"),
    ("trace.overhead_frac", "fraction"),
)
# Printed in the traced report but not in the JSON line: on a workload that
# never enters the layer they read exactly 0 s on every run.
PRINTED_ONLY_LAYER = (
    ("closed_form.self_s", "s"),
    ("closed_form.oracle_s", "s"),
    ("validate.self_s", "s"),
    ("cli.self_s", "s"),
)

SETUP_PROBES = 5
SETUP_REFERENCES = 7
P90_MIN_OPS = 100

# Rounds per traced run at --seconds 20, so the plain and the traced pass
# together take about that long on a 2-vCPU Xeon.  Fixed per workload and --seconds, so
# two traced runs with one seed do identical work and repeat their counts.
TRACE_ROUNDS_AT_20S = {
    "bose-fermi-sweep": 6,
    "hot-cycle": 1,
    "validate-grid": 10,
    "stroke-ledger": 2,
}


def trace_ops(workload: str, seconds: float) -> int:
    rounds = max(1, round(TRACE_ROUNDS_AT_20S[workload] * seconds / 20.0))
    return rounds * wl.round_size(workload)


def require_source() -> Path:
    src = ROOT / "src"
    if not (src / "anyon_otto" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program source not found: {src / 'anyon_otto'}")
    return src


def load_program():
    """Import anyon_otto from the checkout's src/, and nowhere else."""
    src = require_source()
    sys.path.insert(0, str(src))
    import anyon_otto
    import anyon_otto.cli
    import anyon_otto.otto

    if Path(anyon_otto.__file__).resolve().parent != (src / "anyon_otto").resolve():
        raise SystemExit(f"perfbench: imported anyon_otto from {anyon_otto.__file__}, not {src}")
    return anyon_otto


class Ops:
    """The workload's input stream, remembered so an index can be run twice."""

    def __init__(self, workload: str, seed: int):
        self._stream = wl.inputs(workload, seed)
        self.items = []

    def __getitem__(self, i: int) -> dict:
        while len(self.items) <= i:
            self.items.append(next(self._stream))
        return self.items[i]


def run_op(runner, tr, i: int, inp: dict):
    """Run one operation; returns (latency s, output or None, outcome if it raised)."""
    if tr is not None:
        tr.begin(i)
    start = time.perf_counter()
    try:
        out = runner.call(inp)
    except Exception as exc:  # the op failed; the run goes on and counts it
        failure = f"raised {type(exc).__name__}: {exc}"
        return time.perf_counter() - start, None, wl.Outcome([failure], known=False)
    finally:
        if tr is not None:
            tr.end()
    return time.perf_counter() - start, out, None


def check_op(runner, inp: dict, out) -> wl.Outcome:
    runner.collect(out)
    try:
        return runner.check(inp, out)
    except wl.CheckUnavailable:
        raise
    except Exception as exc:  # the reference itself failed on this input
        return wl.Outcome([f"check raised {type(exc).__name__}: {exc}"], known=False)


class Tally:
    """Failures and the worst reported residual over a run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []  # (op index, Outcome)
        self.max_residual = None

    def add(self, i: int, outcome: wl.Outcome) -> None:
        self.attempted += 1
        if outcome.failed:
            self.failures.append((i, outcome))
        if outcome.residual is not None:
            self.max_residual = max(outcome.residual, self.max_residual or 0.0)

    @property
    def correct(self) -> bool:
        return all(o.known for _, o in self.failures)


def work_dir(args) -> Path:
    """Where sweeps write; named by workload so the sweep's stdout repeats exactly."""
    work = OUT_DIR / f"work-{args.workload}"
    work.mkdir(parents=True, exist_ok=True)
    return work


def setup_probe(args) -> int:
    """Fresh process: import the program and run the first operation, once."""
    inp = wl.take(args.workload, args.seed, 1)[0]
    work = work_dir(args)
    try:
        start = time.perf_counter()
        program = load_program()
        tracing.quiet_warnings()
        runner = wl.Runner(args.workload, program, work)
        runner.call(inp)
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ref = speed.median_reference(SETUP_REFERENCES)
    print(json.dumps({"setup_s": elapsed * speed.REF_S / ref, "wall_s": elapsed, "ref_s": ref}))
    return 0


def measure_setup(args) -> list:
    """Set-up probes in fresh processes; one dict per probe (rescaled, wall and reference s)."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-probe",
    ]
    probes = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: set-up probe exited {proc.returncode}")
        probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return probes


def timed_run(args, runner, ops: Ops) -> tuple:
    """Closed loop over whole rounds until --seconds have passed.

    The reference computation runs before the first operation and after
    each one; an operation's time is rescaled by the mean of the two
    references around it.  Returns (wall latencies, rescaled latencies, tally).
    """
    warm = min(wl.round_size(args.workload), len(wl.MEDIA))
    warm_csv = []
    for i in range(warm):  # untimed warm-up over one operation per medium
        _, out, _ = run_op(runner, None, i, ops[i])
        if out is not None:
            runner.collect(out)
        warm_csv.append(None if out is None else out.csv_text)
        speed.reference()

    latencies = []
    rescaled = []
    tally = Tally()
    deadline = time.perf_counter() + args.seconds
    i = 0
    ref_before = speed.reference()
    while i % wl.round_size(args.workload) or time.perf_counter() < deadline:
        latency, out, outcome = run_op(runner, None, i, ops[i])
        ref_after = speed.reference()
        latencies.append(latency)
        rescaled.append(speed.rescale(latency, ref_before, ref_after))
        ref_before = ref_after
        if outcome is None:
            outcome = check_op(runner, ops[i], out)
            if i < warm and out.csv_text != warm_csv[i]:
                outcome.failures.append("sweep.csv bytes differ from the warm-up pass")
                outcome.known = False
        tally.add(i, outcome)
        i += 1
    return latencies, rescaled, tally


def known_failures(args, program) -> list:
    """Run the workload's known-failure points through ``anyon-otto cycle``, untimed."""
    points = wl.KNOWN_FAILURES.get(args.workload, ())
    if not points:
        return []
    runner = wl.Runner("hot-cycle", program, None)
    results = []
    for inp in points:
        out = runner.call(inp)
        results.append((inp, wl.check_cycle(inp, out.rc, out.stdout)))
    return results


def traced_run(args, runner, ops: Ops, tr) -> tuple:
    """Each of a fixed number of operations plain and traced; returns (metrics, tally).

    The two runs of an operation are adjacent, and alternate which goes
    first, so drift in machine speed cancels out of the tracing overhead.
    """
    n = trace_ops(args.workload, args.seconds)
    run_op(runner, None, 0, ops[0])  # warm-up
    tally = Tally()

    def plain_op(i: int) -> float:
        latency, out, _ = run_op(runner, None, i, ops[i])
        if out is not None:
            runner.collect(out)
        return latency

    def traced_op(i: int) -> float:
        tr.install()
        try:
            latency, out, outcome = run_op(runner, tr, i, ops[i])
        finally:
            tr.uninstall()
        if outcome is None:
            outcome = check_op(runner, ops[i], out)
            if args.workload != "stroke-ledger":
                tr.add_count(i, "cli.bytes_written", out.bytes_written)
        tally.add(i, outcome)
        return latency

    plain = traced = 0.0
    for i in range(n):
        if i % 2:
            traced += traced_op(i)
        plain += plain_op(i)
        if not i % 2:
            traced += traced_op(i)
    metrics = tracing.layer_metrics(tr.names, tr.spans, tr.counts)
    metrics["trace.overhead_frac"] = (traced - plain) / plain
    return metrics, tally


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_record(args, program) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "anyon_otto": program.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "rel_tol": wl.REL_TOL,
        "tail_tol": wl.VALIDATE_TAIL_TOL if args.workload == "validate-grid" else wl.TAIL_TOL,
    }


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    require_source()
    os.chdir(ROOT)
    if args.setup_probe:
        return setup_probe(args)

    setups = measure_setup(args) if args.trace == 0 else []
    program = load_program()
    record = machine_record(args, program)
    tr = tracing.Tracer() if args.trace else None
    tracing.quiet_warnings(tr)
    work = work_dir(args)
    ops = Ops(args.workload, args.seed)
    runner = wl.Runner(args.workload, program, work)
    try:
        if args.trace:
            layer, tally = traced_run(args, runner, ops, tr)
        else:
            latencies, rescaled, tally = timed_run(args, runner, ops)
        probes = known_failures(args, program)
    except wl.CheckUnavailable as exc:
        print(f"perfbench: a correctness check could not be evaluated: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record.update(inputs_count=len(ops.items), inputs_sha256=wl.digest(ops.items))
    known = sum(1 for _, o in tally.failures if o.known)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{tally.attempted} ops, closed loop, 1 caller")
    if args.trace:
        record["per_op_counts"] = [dict(tr.counts.get(i, {})) for i in range(tally.attempted)]
        spans_path = OUT_DIR / f"{stem}-spans.json.gz"
        tr.write(spans_path)
        for name, unit in PER_LAYER + PRINTED_ONLY_LAYER:
            print(f"  {name:40s} {_fmt(layer[name]):>14s} {unit}")
        print(f"  spans: {len(tr.spans)} written to {spans_path}")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        n = len(latencies)
        e2e = {
            "setup_s": statistics.median(p["setup_s"] for p in setups),
            "ops_per_s": n / sum(rescaled),
            "op_p50_ms": statistics.median(rescaled) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        p90 = statistics.quantiles(rescaled, n=10)[8] * 1e3 if n >= P90_MIN_OPS else None
        wall = {
            "setup_s": statistics.median(p["wall_s"] for p in setups),
            "ops_per_s": n / sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1e3,
        }
        print(f"  times at reference speed ({speed.REF_S * 1e3:g} ms per reference); wall time in brackets")
        for name, unit in END_TO_END:
            extra = f"   ({_fmt(wall[name])} {unit} wall)" if name in wall else ""
            print(f"  {name:18s} {_fmt(e2e[name]):>14s} {unit}{extra}")
        print(f"  {'op_p90_ms':18s} {_fmt(p90):>14s} ms   (n={n}; reported from {P90_MIN_OPS} ops)")
        print(f"  {'error_rate':18s} {_fmt(len(tally.failures) / tally.attempted):>14s} "
              f"({len(tally.failures)}/{tally.attempted}, {known} known baseline)")
        print(f"  {'max_rel_residual':18s} {_fmt(tally.max_residual):>14s}")
        setup_list = " ".join(f"{p['setup_s']:.4f}" for p in setups)
        print(f"  setup probes (s): {setup_list}")
        record["setup_probes"] = setups
        record["op_p90_ms"] = p90
        record["wall"] = wall
        record["latencies_s"] = latencies
        record["rescaled_latencies_s"] = rescaled
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    for inp, outcome in probes:
        state = "fails" if outcome.failed else "passes"
        print(f"  known-failure point {json.dumps(inp, sort_keys=True)} {state}: "
              f"residual {_fmt(outcome.residual)}{'' if outcome.known else ' (NOT a known failure)'}")
    for i, outcome in tally.failures[:5]:
        print(f"  failed op {i} {json.dumps(ops[i], sort_keys=True)}: {'; '.join(outcome.failures[:3])}")
    record.update(
        error_rate=len(tally.failures) / tally.attempted,
        known_baseline_failures=known,
        max_rel_residual=tally.max_residual,
        failures=[{"op": i, "failures": o.failures, "known": o.known} for i, o in tally.failures],
        known_failure_points=[
            {"input": inp, "failures": o.failures, "residual": o.residual, "known": o.known}
            for inp, o in probes
        ],
        metrics=metrics,
    )
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": tally.correct and all(o.known for _, o in probes),
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
