"""Seeded inputs, the operation each workload times, and its correctness check.

Every workload is an infinite, deterministic stream of inputs drawn from the
workload seed, in rounds.  A round holds, for each medium, one Latin-hypercube
sample of ``STRATA[workload]`` points: each parameter's range is cut into that
many strata and every stratum is hit once.  Operation cost varies fifty-fold
across the parameter box, so a run measures whole rounds only; every run then
measures the same stratified design, and two seeds' figures stay close.

Only the standard library is imported here at module level, so a fresh
process can generate its inputs before ``anyon_otto`` (and numpy) is imported
and the set-up timing covers the whole import.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import random
from pathlib import Path

# Tolerances pinned by the repository's acceptance suite.
CLOSED_FORM_TOL = 1e-9  # closed form vs cycle oracle (ring, cs-coupling)
CS_VOLUME_TOL = 1e-10  # |eta - (1 - L2^2/L1^2)|
STROKE_TOL = 1e-8  # A->B heat vs run_cycle q_in, and first-law closure

# Work pinned on every operation, so a gain cannot come from a looser tolerance.
REL_TOL = "1e-12"
TAIL_TOL = "1e-13"  # cycle and sweep default
VALIDATE_TAIL_TOL = "1e-14"  # validate default
STROKE_STEPS = 1000
SWEEP_POINTS = 21

# Known failures at the parent commit.  The relative residual
# |closed - oracle| / |eta| is ill-conditioned where eta = 1 - Q_out/Q_in is
# near zero (ring at high temperature: 1.25e-9 at beta_h = 1e-6, 2.5e-8 at
# 1e-7; ring with alpha_l next to alpha_h) or where Q_in nearly vanishes
# (cs-coupling at alpha2 = 1 and beta_h >~ 0.4).  Such an operation counts as
# failed.  It leaves the run correct only if it meets the bounds the
# repository's acceptance suite (criterion 2) sets on the floored residual
# |closed - oracle| / max(1, |eta|): CLOSED_FORM_TOL in general, and
# ILL_CONDITIONED_TOL at a pole of eta, where |Q_in| <= POLE_RATIO * |Q_out|.
ILL_CONDITIONED_TOL = 1e-5
POLE_RATIO = 1e-6
KNOWN_NOTE = "known: ill-conditioned efficiency"

# The timed inputs keep clear of those regions, so no timed operation fails
# (see SWEEP_BETA, _sweep_input and HOT_RING_BETA).  Instead every run of a
# workload puts these fixed points inside them through ``anyon-otto cycle``,
# untimed, and reports which still fail: the two ring points named when the
# benchmark was specified, and one failing sweep row of each kind.
KNOWN_FAILURES = {
    "hot-cycle": (
        {"medium": "ring", "alpha_h": 0.1, "alpha_l": 0.3, "beta_h": 1e-6, "beta_l": 1e-5},
        {"medium": "ring", "alpha_h": 0.1, "alpha_l": 0.3, "beta_h": 1e-7, "beta_l": 1e-6},
    ),
    "bose-fermi-sweep": (
        {"medium": "cs-coupling", "alpha1": 0.0, "alpha2": 1.0, "beta_h": 0.4976, "beta_l": 3.161},
        {"medium": "ring", "alpha_h": 0.10018, "alpha_l": 0.1, "beta_h": 0.02666, "beta_l": 0.1142},
    ),
}


class CheckUnavailable(Exception):
    """An output could not be parsed, so its check cannot be evaluated."""


@dataclasses.dataclass
class Outcome:
    """Result of checking one operation."""

    failures: list
    residual: float | None = None  # worst closed-form residual the op reported
    known: bool = True  # every failure is a documented baseline failure

    @property
    def failed(self) -> bool:
        return bool(self.failures)


# ---------------------------------------------------------------------------
# input streams
# ---------------------------------------------------------------------------


def _latin_hypercube(rng: random.Random, n: int, dim: int) -> list:
    """n points in [0, 1)^dim, each coordinate hitting each of n strata once."""
    columns = []
    for _ in range(dim):
        strata = list(range(n))
        rng.shuffle(strata)
        columns.append([(k + rng.random()) / n for k in strata])
    return [list(point) for point in zip(*columns)]


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _media_inputs(workload: str, seed: int, make):
    rng = random.Random(f"{workload}/{seed}")
    strata = STRATA[workload]
    while True:
        # Largest b first: the cheapest stratum opens every round, so the
        # set-up probes, which run the first operation, time a steady one.
        points = {m: sorted(_latin_hypercube(rng, strata, 4), reverse=True) for m in MEDIA}
        for k in range(strata):
            for medium in MEDIA:
                yield make(medium, points[medium][k])


# Set-up time is import plus the first operation, so rounds start with the
# cheapest medium to keep that first operation from dominating set-up.
MEDIA = ("cs-volume", "ring", "cs-coupling")

# Points per medium in one round; a round runs 3 * STRATA operations.
STRATA = {"bose-fermi-sweep": 8, "hot-cycle": 6, "stroke-ledger": 8}

# Sweep temperatures stop at beta_h = 0.3: cs-coupling rows at alpha2 = 1
# fail from beta_h ~ 0.41 on.
SWEEP_BETA = (0.02, 0.3)
SWEEP_STEP = 1.0 / (SWEEP_POINTS - 1)

# hot-cycle temperature ranges.  Pair media stop at beta_h = 1e-4 (1.3 s per
# cs-coupling operation on a 2-vCPU Xeon) rather than 1e-5 (16 s), so a
# window holds several rounds.  Ring stops at 2e-5: with alpha_l - alpha_h
# down to 0.1 its residual reaches 7e-10 at 1e-5 and fails below 5e-6.
HOT_PAIR_BETA = (1e-4, 3e-4)
HOT_RING_BETA = (2e-5, 1e-4)
STROKE_BETA = (0.06, 0.3)

# cs-volume cycles compress L1 to L2 = L1 * U[0.3, 0.9].  They measure
# temperature against each isochore's level spacing (see _cycle_input), so L1
# sets no cost.
CS_VOLUME_L1 = 1.0


def _sweep_input(medium: str, u: list) -> dict:
    beta_h = _log_uniform(u[0], *SWEEP_BETA)
    inp = {"medium": medium, "beta_h": beta_h, "beta_l": beta_h * (2.0 + 18.0 * u[1])}
    if medium == "cs-coupling":
        inp.update(axis="alpha2", start=0.0, stop=1.0, alpha1=0.0)
    elif medium == "ring":
        # alpha_h sits halfway between two grid values: a row within ~0.002
        # of alpha_h has eta ~ 0 and fails the residual check (see above).
        alpha_h = SWEEP_STEP * (math.floor(10 * u[2]) + 0.5)
        inp.update(axis="alpha_l", start=0.0, stop=1.0, alpha_h=alpha_h)
    else:
        l1 = 1.0 + u[2]
        inp.update(axis="l2", start=0.3 * l1, stop=0.9 * l1, l1=l1, alpha=u[3])
    return inp


def _cycle_input(medium: str, u: list, beta_range: tuple, max_ratio: float) -> dict:
    """One cycle with beta_h = b from ``beta_range`` and beta_l = beta_h * U[2, max_ratio].

    A cs-volume cycle measures b against each isochore's own level spacing:
    pair levels scale as 1/L^2, so it takes beta_h = L2^2 b and
    beta_l = L1^2 b U[2, max_ratio].  Both isochores then sit at the
    temperature a cs-coupling cycle has at b, whatever L2 is.
    """
    b = _log_uniform(u[0], *beta_range)
    ratio = 2.0 + (max_ratio - 2.0) * u[1]
    inp = {"medium": medium, "beta_h": b, "beta_l": b * ratio}
    if medium == "cs-coupling":
        inp.update(alpha1=u[2], alpha2=u[3])
    elif medium == "ring":
        inp.update(alpha_h=0.5 * u[2], alpha_l=0.5 * u[2] + 0.1 + 0.4 * u[3])
    else:
        l1, l2 = CS_VOLUME_L1, CS_VOLUME_L1 * (0.3 + 0.6 * u[2])
        inp.update(beta_h=b * l2**2, beta_l=b * ratio * l1**2, l1=l1, l2=l2, alpha=u[3])
    return inp


def _hot_input(medium: str, u: list) -> dict:
    beta_range = HOT_RING_BETA if medium == "ring" else HOT_PAIR_BETA
    return _cycle_input(medium, u, beta_range, 10.0)


def _stroke_input(medium: str, u: list) -> dict:
    return _cycle_input(medium, u, STROKE_BETA, 5.0)


def _validate_inputs(seed: int):
    rng = random.Random(f"validate-grid/{seed}")
    while True:
        yield {"seed": rng.randrange(2**31)}


def inputs(workload: str, seed: int):
    """The workload's input stream for a seed; the same seed gives the same stream."""
    if workload == "bose-fermi-sweep":
        return _media_inputs(workload, seed, _sweep_input)
    if workload == "hot-cycle":
        return _media_inputs(workload, seed, _hot_input)
    if workload == "stroke-ledger":
        return _media_inputs(workload, seed, _stroke_input)
    if workload == "validate-grid":
        return _validate_inputs(seed)
    raise ValueError(f"unknown workload {workload!r}")


def round_size(workload: str) -> int:
    """Operations per round; a run measures whole rounds."""
    return len(MEDIA) * STRATA[workload] if workload in STRATA else 1


def take(workload: str, seed: int, n: int) -> list:
    stream = inputs(workload, seed)
    return [next(stream) for _ in range(n)]


def digest(inps: list) -> str:
    """sha256 of the inputs, one canonical JSON line each (floats round-trip)."""
    h = hashlib.sha256()
    for inp in inps:
        h.update(json.dumps(inp, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# command lines
# ---------------------------------------------------------------------------

_FLAG = {
    "beta_h": "--beta-h",
    "beta_l": "--beta-l",
    "alpha_h": "--alpha-h",
    "alpha_l": "--alpha-l",
    "alpha1": "--alpha1",
    "alpha2": "--alpha2",
    "l1": "--l1",
    "l2": "--l2",
    "alpha": "--alpha",
}


def _medium_flags(inp: dict) -> list:
    argv = ["--medium", inp["medium"]]
    for key, flag in _FLAG.items():
        if key in inp:
            argv += [flag, repr(float(inp[key]))]
    return argv + ["--rel-tol", REL_TOL, "--tail-tol", TAIL_TOL]


def sweep_argv(inp: dict, out_dir: str) -> list:
    grid = f"{inp['start']!r}:{inp['stop']!r}:{SWEEP_POINTS}"
    return (
        ["sweep"]
        + _medium_flags(inp)
        + ["--sweep", inp["axis"], "--grid", grid, "--format", "csv,json,svg", "--out", out_dir]
    )


def cycle_argv(inp: dict) -> list:
    return ["cycle"] + _medium_flags(inp)


def validate_argv(inp: dict) -> list:
    return [
        "validate",
        "--seed",
        str(inp["seed"]),
        "--rel-tol",
        REL_TOL,
        "--tail-tol",
        VALIDATE_TAIL_TOL,
    ]


def stroke_spec(otto, inp: dict):
    tail_tol = float(TAIL_TOL)
    b = (inp["beta_h"], inp["beta_l"])
    if inp["medium"] == "ring":
        return otto.OttoCycleSpec.ring_cycle(inp["alpha_h"], inp["alpha_l"], *b, tail_tol=tail_tol)
    if inp["medium"] == "cs-volume":
        return otto.OttoCycleSpec.cs_volume_cycle(
            inp["l1"], inp["l2"], inp["alpha"], *b, tail_tol=tail_tol
        )
    return otto.OttoCycleSpec.cs_coupling_cycle(inp["alpha1"], inp["alpha2"], *b, tail_tol=tail_tol)


# ---------------------------------------------------------------------------
# checks (pure functions of an operation's input and output)
# ---------------------------------------------------------------------------


def _float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise CheckUnavailable(f"cannot parse {what}: {text!r}") from None


def _parse_point(eta, q_in, q_out, w_out, regime, residual) -> dict:
    """One cycle point as the program printed it."""
    return {
        "eta": _float(eta, "efficiency"),
        "q_in": _float(q_in, "Q_in"),
        "q_out": _float(q_out, "Q_out"),
        "w_out": _float(w_out, "W_out"),
        "regime": regime,
        "residual": _float(residual, "residual") if residual else None,
    }


def _point_failures(inp: dict, point: dict) -> list:
    """(message, known) pairs for one cycle point; ``inp`` holds its controls.

    The heats must reproduce the efficiency and work (the program forms them
    as 1 - Q_out/Q_in and Q_in - Q_out).  The efficiency must then match
    1 - L2^2/L1^2 (cs-volume), or carry a closed-form residual within
    CLOSED_FORM_TOL, which is 0/0 and absent only at identical controls.
    """
    eta, q_in, q_out = point["eta"], point["q_in"], point["q_out"]
    out = []
    if not abs(eta - (1.0 - q_out / q_in)) <= 1e-12 * max(1.0, abs(eta)):
        out.append((f"efficiency {eta!r} != 1 - Q_out/Q_in", False))
    if not abs(point["w_out"] - (q_in - q_out)) <= 1e-12 * max(abs(q_in), abs(q_out)):
        out.append((f"W_out {point['w_out']!r} != Q_in - Q_out", False))
    medium, residual = inp["medium"], point["residual"]
    if medium == "cs-volume":
        err = abs(eta - (1.0 - (inp["l2"] / inp["l1"]) ** 2))
        if not err <= CS_VOLUME_TOL:
            out.append((f"|eta - (1 - L2^2/L1^2)| = {err:.3e}", False))
    elif residual is None:
        if medium == "ring":
            identical = inp["alpha_h"] == inp["alpha_l"]
        else:
            identical = inp["alpha1"] == inp["alpha2"]
        if not identical:
            out.append(("missing closed-form residual", False))
    elif not residual <= CLOSED_FORM_TOL:
        message = f"{medium} residual {residual:.3e} > {CLOSED_FORM_TOL:g}"
        floored = residual * min(1.0, abs(eta))
        pole = abs(q_in) <= POLE_RATIO * abs(q_out)
        known = floored <= CLOSED_FORM_TOL or (pole and floored <= ILL_CONDITIONED_TOL)
        out.append((f"{message} ({KNOWN_NOTE})" if known else message, known))
    return out


def sweep_grid(inp: dict) -> list:
    start, stop, n = inp["start"], inp["stop"], SWEEP_POINTS
    return [start + (stop - start) * k / (n - 1) for k in range(n)]


def check_sweep(inp: dict, rc: int, csv_text: str | None) -> Outcome:
    """Exit 0, every grid point present with no error, residuals within tolerance."""
    if rc != 0:
        return Outcome([f"exit code {rc}"], known=False)
    if csv_text is None:
        return Outcome(["sweep.csv not written"], known=False)
    lines = csv_text.splitlines()
    header = f"{inp['axis']},efficiency,q_in,q_out,w_out,regime,residual,error"
    if not lines or lines[0] != header:
        raise CheckUnavailable(f"unexpected sweep.csv header: {lines[:1]!r}")
    rows = [line.split(",") for line in lines[1:]]
    grid = sweep_grid(inp)
    failures = []
    known = True
    if len(rows) != len(grid):
        failures.append(f"{len(rows)} rows, expected {len(grid)}")
        known = False
    worst = None
    for k, row in enumerate(rows):
        if len(row) != 8:
            raise CheckUnavailable(f"sweep.csv row {k} has {len(row)} fields")
        value = _float(row[0], "grid value")
        if k < len(grid) and not math.isclose(value, grid[k], rel_tol=1e-12, abs_tol=1e-15):
            failures.append(f"row {k}: grid value {value!r}, expected {grid[k]!r}")
            known = False
        if row[7]:
            failures.append(f"row {k}: error {row[7]!r}")
            known = False
            continue
        point = _parse_point(*row[1:7])
        if point["residual"] is not None:
            worst = max(point["residual"], worst or 0.0)
        bad = _point_failures({**inp, inp["axis"]: value}, point)
        for message, is_known in bad:
            failures.append(f"row {k}: {message}")
            known = known and is_known
    return Outcome(failures, worst, known)


def _cycle_fields(stdout: str) -> dict:
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            fields[key.strip()] = value.strip()
    return fields


def check_cycle(inp: dict, rc: int, stdout: str) -> Outcome:
    """Exit 0 or 2, and the efficiency within tolerance of its reference."""
    if rc not in (0, 2):
        return Outcome([f"exit code {rc}"], known=False)
    fields = _cycle_fields(stdout)
    missing = [k for k in ("efficiency", "Q_in", "Q_out", "W_out") if k not in fields]
    if missing:
        return Outcome([f"no {', '.join(missing)} (regime {fields.get('regime')!r})"], known=False)
    point = _parse_point(
        fields["efficiency"],
        fields["Q_in"],
        fields["Q_out"],
        fields["W_out"],
        fields.get("regime", ""),
        fields.get("closed_form_residual"),
    )
    bad = _point_failures(inp, point)
    return Outcome([m for m, _ in bad], point["residual"], all(k for _, k in bad))


def check_validate(rc: int, stdout: str) -> Outcome:
    """Exit 0 and every family PASS; reports the worst family max residual."""
    families = [line for line in stdout.splitlines() if line.startswith(("PASS ", "FAIL "))]
    if not families:
        raise CheckUnavailable("validate printed no family lines")
    failures = [] if rc == 0 else [f"exit code {rc}"]
    worst = 0.0
    for line in families:
        if line.startswith("FAIL "):
            failures.append(line)
        _, sep, rest = line.partition("max residual ")
        if not sep:
            raise CheckUnavailable(f"no max residual in {line!r}")
        worst = max(worst, _float(rest.split(" ", 1)[0], "max residual"))
    return Outcome(failures, worst, known=not failures)


def check_strokes(report, q_in_ref: float) -> Outcome:
    """Exact zeros, A->B heat = run_cycle q_in, and first-law closure."""
    strokes = {s.name: s for s in report.strokes}
    failures = []
    for name in ("B->C", "D->A"):
        if strokes[name].heat != 0.0:
            failures.append(f"adiabat {name} heat {strokes[name].heat!r} != 0")
    for name in ("A->B", "C->D"):
        if strokes[name].work != 0.0:
            failures.append(f"isochore {name} work {strokes[name].work!r} != 0")
    scale = max(abs(q_in_ref), 1e-300)
    q_err = abs(strokes["A->B"].heat - q_in_ref) / scale
    if not q_err <= STROKE_TOL:
        failures.append(f"A->B heat differs from run_cycle q_in by {q_err:.3e}")
    closure = abs(sum(s.heat + s.work for s in report.strokes)) / scale
    if not closure <= STROKE_TOL:
        failures.append(f"first-law closure {closure:.3e}")
    return Outcome(failures, closure, known=not failures)


# ---------------------------------------------------------------------------
# running one operation
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class OpOutput:
    """What one operation produced; checked after the op timer has stopped."""

    rc: int | None = None
    stdout: str = ""
    csv_text: str | None = None
    bytes_written: int = 0
    strokes: object = None


class Runner:
    """Runs one workload's operations through the program's public entry points."""

    def __init__(self, workload: str, program, work_dir: Path):
        self.workload = workload
        self.cli = program.cli
        self.otto = program.otto
        self.work_dir = work_dir

    def call(self, inp: dict) -> OpOutput:
        """The timed part of one operation."""
        if self.workload == "stroke-ledger":
            return OpOutput(strokes=self.otto.cycle_strokes(stroke_spec(self.otto, inp), STROKE_STEPS))
        if self.workload == "bose-fermi-sweep":
            argv = sweep_argv(inp, str(self.work_dir))
        elif self.workload == "hot-cycle":
            argv = cycle_argv(inp)
        else:
            argv = validate_argv(inp)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(argv)
        return OpOutput(rc=rc, stdout=buf.getvalue())

    def collect(self, out: OpOutput) -> None:
        """Read back the files an operation wrote (untimed).

        ``bytes_written`` counts standard output, sweep.csv and sweep.svg.
        sweep.json is left out: its per-row wall times change its length
        from run to run, and the count must repeat exactly for a seed.
        """
        out.bytes_written = len(out.stdout.encode())
        if self.workload != "bose-fermi-sweep":
            return
        for name in ("sweep.csv", "sweep.json", "sweep.svg"):
            path = self.work_dir / name
            if not path.is_file():
                continue
            if name != "sweep.json":
                out.bytes_written += path.stat().st_size
            if name == "sweep.csv":
                out.csv_text = path.read_text(encoding="utf-8")
            path.unlink()

    def check(self, inp: dict, out: OpOutput) -> Outcome:
        if self.workload == "bose-fermi-sweep":
            return check_sweep(inp, out.rc, out.csv_text)
        if self.workload == "hot-cycle":
            return check_cycle(inp, out.rc, out.stdout)
        if self.workload == "validate-grid":
            return check_validate(out.rc, out.stdout)
        q_in = self.otto.run_cycle(stroke_spec(self.otto, inp)).q_in
        return check_strokes(out.strokes, q_in)
