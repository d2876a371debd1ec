"""Tests of the benchmark itself: inputs, checks, span arithmetic, smoke runs.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

from anyon_otto import cli, otto  # noqa: E402


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_inputs_repeat_per_seed_and_differ_across_seeds(workload):
    a = wl.take(workload, 7, 12)
    assert a == wl.take(workload, 7, 12)
    assert wl.digest(a) == wl.digest(wl.take(workload, 7, 12))
    assert wl.digest(a) != wl.digest(wl.take(workload, 8, 12))


def test_inputs_stay_in_their_ranges():
    for inp in wl.take("hot-cycle", 3, 300):
        lo, hi = wl.HOT_RING_BETA if inp["medium"] == "ring" else wl.HOT_PAIR_BETA
        b, b_cold = inp["beta_h"], inp["beta_l"]
        if inp["medium"] == "cs-volume":  # temperatures per level spacing
            b, b_cold = b / inp["l2"] ** 2, b_cold / inp["l1"] ** 2
        assert lo <= b <= hi
        assert 2.0 * b <= b_cold <= 10.0 * b
    media = [inp["medium"] for inp in wl.take("bose-fermi-sweep", 3, 9)]
    assert media == list(wl.MEDIA) * 3


def test_sweep_inputs_keep_clear_of_the_known_failures():
    for inp in wl.take("bose-fermi-sweep", 4, 240):
        assert wl.SWEEP_BETA[0] <= inp["beta_h"] <= wl.SWEEP_BETA[1]
        if inp["medium"] == "ring":
            nearest = min(abs(x - inp["alpha_h"]) for x in wl.sweep_grid(inp))
            assert nearest == pytest.approx(wl.SWEEP_STEP / 2)


# ---------------------------------------------------------------------------
# checks flag corrupted outputs
# ---------------------------------------------------------------------------


def _sweep(inp, tmp_path):
    runner = wl.Runner("bose-fermi-sweep", sys.modules["anyon_otto"], tmp_path)
    out = runner.call(inp)
    runner.collect(out)
    return out


def _first(workload, medium, seed=5):
    return next(i for i in wl.take(workload, seed, 6) if i["medium"] == medium)


def _perturb_efficiency(line: str) -> str:
    fields = line.split(",")
    fields[1] = repr(float(fields[1]) + 1e-6)
    return ",".join(fields)


@pytest.mark.parametrize("medium", ["cs-volume", "cs-coupling"])
def test_sweep_check_flags_perturbed_efficiency_and_dropped_row(medium, tmp_path):
    inp = _first("bose-fermi-sweep", medium)
    out = _sweep(inp, tmp_path)
    assert wl.check_sweep(inp, out.rc, out.csv_text).known  # at most known failures

    lines = out.csv_text.splitlines(keepends=True)
    perturbed = lines[:5] + [_perturb_efficiency(lines[5].rstrip("\n")) + "\n"] + lines[6:]
    outcome = wl.check_sweep(inp, 0, "".join(perturbed))
    assert outcome.failed and not outcome.known

    dropped = wl.check_sweep(inp, 0, "".join(lines[:7] + lines[8:]))
    assert dropped.failed and not dropped.known
    assert not wl.check_sweep(inp, 1, out.csv_text).known


def test_cycle_check_flags_perturbed_efficiency():
    inp = {"medium": "cs-coupling", "beta_h": 3e-4, "beta_l": 9e-4, "alpha1": 0.2, "alpha2": 0.9}
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(wl.cycle_argv(inp))
    assert not wl.check_cycle(inp, rc, buf.getvalue()).failed
    lines = buf.getvalue().splitlines()
    eta_line = next(line for line in lines if line.startswith("efficiency = "))
    bad = float(eta_line.split(" = ")[1]) + 1e-6
    corrupted = "\n".join(f"efficiency = {bad!r}" if line == eta_line else line for line in lines)
    outcome = wl.check_cycle(inp, rc, corrupted)
    assert outcome.failed and not outcome.known
    missing = "\n".join(line for line in lines if not line.startswith("closed_form_residual"))
    assert not wl.check_cycle(inp, rc, missing).known


@pytest.mark.parametrize("inp", [p for points in wl.KNOWN_FAILURES.values() for p in points])
def test_known_failure_points_fail_only_as_known(inp):
    """The parent's residuals above 1e-9 at ill-conditioned points are known failures."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(wl.cycle_argv(inp))
    assert wl.check_cycle(inp, rc, buf.getvalue()).known  # passes, or fails only as known


def _ring_point(eta, q_in, residual):
    q_out = q_in * (1.0 - eta)
    return {"eta": eta, "q_in": q_in, "q_out": q_out, "w_out": q_in - q_out,
            "regime": "engine" if eta > 0 else "refrigerator", "residual": residual}


def test_known_failures_follow_the_acceptance_suite_bounds():
    inp = {"medium": "ring", "alpha_h": 0.1, "alpha_l": 0.3}
    cases = [
        (1e-7, 1.0, 2e-8, True),  # eta near 0: absolute error 2e-15
        (0.3, 1.0, 2e-9, True),  # floored residual 6e-10 <= 1e-9
        (0.3, 1.0, 1e-8, False),  # floored residual 3e-9
        (-1e8, 1e-8, 2e-8, True),  # pole of eta: floored 2e-8 <= 1e-5
        (-1e8, 1e-8, 1e-4, False),  # pole, but floored 1e-4
        (-50.0, 1.0, 2e-8, False),  # no pole, floored 2e-8
    ]
    for eta, q_in, residual, known in cases:
        (message, is_known), = wl._point_failures(inp, _ring_point(eta, q_in, residual))
        assert is_known is known, (eta, residual, message)


def test_stroke_check_flags_nonzero_adiabat_heat():
    inp = _first("stroke-ledger", "cs-coupling")
    spec = wl.stroke_spec(otto, inp)
    report = otto.cycle_strokes(spec, 50)
    q_in = otto.run_cycle(spec).q_in
    assert not wl.check_strokes(report, q_in).failed
    strokes = tuple(
        dataclasses.replace(s, heat=1e-300) if s.name == "B->C" else s for s in report.strokes
    )
    outcome = wl.check_strokes(dataclasses.replace(report, strokes=strokes), q_in)
    assert outcome.failed and not outcome.known
    assert wl.check_strokes(report, q_in * (1 + 1e-6)).failed


def test_validate_check_flags_failed_family_and_unparsable_output():
    ok = "PASS theta-split [rederived]: max residual 2.4e-14 (threshold 4e-12, 1 points, 0 errors)\n"
    assert wl.check_validate(0, ok).residual == pytest.approx(2.4e-14)
    outcome = wl.check_validate(3, ok.replace("PASS", "FAIL"))
    assert outcome.failed and not outcome.known
    with pytest.raises(wl.CheckUnavailable):
        wl.check_validate(0, "nothing to see\n")


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def test_self_time_subtracts_covered_child_intervals():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping) and a
    # grandchild [1, 2] under the first child.
    spans = [
        (0, 0.0, 10.0, -1, 0),
        (1, 1.0, 4.0, 0, 0),
        (1, 3.0, 6.0, 0, 0),
        (2, 1.0, 2.0, 1, 0),
    ]
    assert tracer.self_times(spans) == [5.0, 2.0, 3.0, 1.0]


def test_layer_metrics_attribute_oracle_time_and_enumerations():
    names = [
        ("closed_form", "cs_partition_closed"),
        ("thermo", "partition_function"),
        ("spectra", "enumerate_levels"),
        ("special_functions", "theta3"),
    ]
    spans = [
        (0, 0.0, 10.0, -1, 0),
        (1, 1.0, 5.0, 0, 0),  # oracle called by the closed form
        (2, 1.5, 4.0, 1, 0),  # enumeration under it
        (3, 6.0, 7.0, 0, 0),  # theta series: not an oracle
        (2, 20.0, 21.0, -1, 1),  # enumeration outside any closed form
    ]
    m = tracer.layer_metrics(names, spans, {0: {"spectra.levels": 3}, 1: {"spectra.levels": 4}})
    assert m["closed_form.self_s"] == 5.0
    assert m["closed_form.oracle_s"] == 4.0
    assert m["closed_form.oracle_enumerations"] == 1
    assert m["spectra.calls"] == 2
    assert m["spectra.self_s"] == 3.5
    assert m["spectra.levels"] == 7
    assert m["validate.calls"] == 0


def test_tracer_wraps_every_binding_and_restores_them():
    import anyon_otto.closed_form as cf
    import anyon_otto.thermo as thermo

    original = thermo.enumerate_levels
    tr = tracer.Tracer()
    tr.install()
    try:
        assert cf.enumerate_levels is not original
        assert cf.enumerate_levels is thermo.enumerate_levels
        tr.begin(0)
        cf.cs_partition_closed(0.5, 0.1, 1.0)
        tr.end()
    finally:
        tr.uninstall()
    assert cf.enumerate_levels is original
    m = tracer.layer_metrics(tr.names, tr.spans, tr.counts)
    assert m["closed_form.oracle_enumerations"] == 1
    assert m["spectra.levels"] > 0 and m["special_functions.terms"] > 0


# ---------------------------------------------------------------------------
# reference speed
# ---------------------------------------------------------------------------


def test_rescale_divides_by_the_mean_reference():
    assert speed.rescale(0.5, speed.REF_S, speed.REF_S) == pytest.approx(0.5)
    assert speed.rescale(0.5, 2 * speed.REF_S, 2 * speed.REF_S) == pytest.approx(0.25)
    assert speed.rescale(0.3, speed.REF_S, 3 * speed.REF_S) == pytest.approx(0.15)
    assert speed.reference() > 0.0


# ---------------------------------------------------------------------------
# smoke runs
# ---------------------------------------------------------------------------


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 2):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


def _metric_names(kind: str) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[kind]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_declared_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == _metric_names(kind)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    for inp in wl.KNOWN_FAILURES.get(workload, ()):
        assert f"known-failure point {json.dumps(inp, sort_keys=True)}" in proc.stdout


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    assert _metric_names("end_to_end") == [n for n, _ in run.END_TO_END]
    assert _metric_names("per_layer") == [n for n, _ in run.PER_LAYER]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", ["bose-fermi-sweep", "stroke-ledger"])
def test_traced_counts_repeat_for_a_seed(workload):
    first, second = (json.loads(_run(workload, 1).stdout.strip().splitlines()[-1]) for _ in range(2))
    counts = [n for n, unit in run.PER_LAYER if unit in ("count", "bytes")]
    assert {n: first["metrics"][n]["value"] for n in counts} == {
        n: second["metrics"][n]["value"] for n in counts
    }


def test_run_without_program_source_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("validate-grid", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
