"""Command-line front end: single cycles, parameter sweeps, validation.

Subcommands
-----------
cycle     run one Otto cycle and print efficiency, heats, work, regime
sweep     run a cycle per grid value of one parameter; write CSV/JSON/SVG
validate  run the closed-form-versus-oracle grids and print residuals

Run parameters come from an optional flat key=value config file plus command
line flags; a later flag overrides the config file.  All numbers are written
with 17 significant digits so CSV and JSON round-trip exactly, and CSV bytes
are deterministic for a fixed configuration.

Exit codes: 0 success (cycle: engine regime), 2 cycle completed in a
non-engine regime, 3 validation failure, 64 bad configuration, 1 other error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

from . import __version__
from . import closed_form as cf
from .errors import AnyonOttoError, ConfigError, DegenerateCycle, DomainError
from .otto import (
    MEDIA,
    MEDIUM,
    REGIME_ENGINE,
    OttoCycleSpec,
    _sweep_rows,
    efficiency_cs_volume,
    run_cycle,
    sweep_axes,
)
from .special_functions import DEFAULT_ACCURACY, SumAccuracy
from .spectra import require_finite, require_tail_tol
from .thermo import DEFAULT_TAIL_TOL, _sharing
from .validate import run_validation

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NON_ENGINE = 2
EXIT_VALIDATION = 3
EXIT_CONFIG = 64

_FLOAT_KEYS = (
    ("beta_h", "beta_l")
    + tuple(p.name for medium in MEDIUM.values() for p in medium.params)
    + ("rel_tol", "tail_tol")
)
_STR_KEYS = ("medium", "sweep", "grid", "out", "format", "variant")
_INT_KEYS = ("seed",)
_ALL_KEYS = _FLOAT_KEYS + _STR_KEYS + _INT_KEYS


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit 64)."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="anyon-otto", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"anyon-otto {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_options(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--medium", choices=MEDIA)
        p.add_argument("--beta-h", dest="beta_h", type=float, help="hot-bath inverse temperature")
        p.add_argument("--beta-l", dest="beta_l", type=float, help="cold-bath inverse temperature")
        for name, medium in MEDIUM.items():
            for param in medium.params:
                default = "" if param.required else f" (default {param.default:g})"
                p.add_argument(
                    "--" + param.name.replace("_", "-"),
                    dest=param.name,
                    type=float,
                    help=f"{name}: {param.doc}{default}",
                )
        p.add_argument("--rel-tol", dest="rel_tol", type=float, help="series relative tolerance")
        p.add_argument("--tail-tol", dest="tail_tol", type=float, help="enumeration tail tolerance")
        p.add_argument("--out", help="output directory")
        p.add_argument("--format", help="comma-separated subset of csv,json,svg (cycle: no svg)")
        p.add_argument(
            "--seed", type=int, help="seed for validate's random grids; cycle and sweep ignore it"
        )

    parser.commands = sub.choices  # command name -> its parser, for main
    p_cycle = sub.add_parser("cycle", help="run a single Otto cycle")
    add_run_options(p_cycle)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter over a grid")
    add_run_options(p_sweep)
    p_sweep.add_argument("--sweep", help="parameter name to sweep")
    p_sweep.add_argument("--grid", help="grid as start:stop:steps (steps = point count)")

    p_val = sub.add_parser("validate", help="run closed-form vs oracle validation")
    p_val.add_argument("--config", help="flat key=value config file")
    p_val.add_argument("--rel-tol", dest="rel_tol", type=float)
    p_val.add_argument("--tail-tol", dest="tail_tol", type=float)
    p_val.add_argument("--seed", type=int)
    p_val.add_argument(
        "--variant",
        choices=cf.VARIANTS,
        help="formula variant to validate (printed variants are expected to fail)",
    )
    for name, command in sub.choices.items():
        command.set_defaults(command=name)
    return parser


def _load_config_file(path: str) -> dict:
    """The file's settings, each value typed as its key's flag would type it."""
    cfg = {}
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    for lineno, raw in enumerate(p.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in _ALL_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key: {key}")
        value = value.strip()
        convert = float if key in _FLOAT_KEYS else int if key in _INT_KEYS else str
        try:
            cfg[key] = convert(value)
        except ValueError:
            raise ConfigError(f"config value for {key} is not a number: {value!r}") from None
    return cfg


def _require(mapping, key: str):
    value = mapping.get(key)
    if value is None:
        raise ConfigError(f"missing required key: {key}")
    return value


class _RunConfig(dict):
    """The run's settings: the config file's, with the flags that were given over them."""

    def __init__(self, args: argparse.Namespace):
        given = {key: value for key, value in vars(args).items() if value is not None}
        super().__init__(_load_config_file(args.config) if "config" in given else {}, **given)
        # The tolerances, the seed and the variant are checked once, here, so that
        # a bad one is a configuration error on every command before any work starts;
        # ``accuracy``, rel_tol's SumAccuracy, serves every closed form of the run.
        rel_tol, tail_tol, seed = self.get("rel_tol"), self.get("tail_tol"), self.get("seed")
        if seed is not None and seed < 0:
            raise ConfigError(f"seed must be non-negative, got {seed}")
        variant = self.get("variant")
        if variant is not None and variant not in cf.VARIANTS:
            raise ConfigError(f"variant must be one of {cf.VARIANTS}, got {variant!r}")
        try:
            self.accuracy = DEFAULT_ACCURACY if rel_tol is None else SumAccuracy(rel_tol=rel_tol)
            if tail_tol is not None:
                require_finite(tail_tol=tail_tol)
                require_tail_tol(tail_tol)
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc


# A swept temperature stands in with the other bath's value, so the template
# satisfies beta_h <= beta_l; rows that violate it are recorded per row.
_TEMPERATURE_PARTNERS = {"beta_h": "beta_l", "beta_l": "beta_h"}


def _cycle_spec(cfg: _RunConfig, fallback: dict | None = None) -> OttoCycleSpec:
    settings = {**fallback, **cfg} if fallback else cfg
    medium = _require(settings, "medium")
    if medium not in MEDIA:
        raise ConfigError(f"medium must be one of {MEDIA}, got {medium!r}")
    beta_h, beta_l = _require(settings, "beta_h"), _require(settings, "beta_l")
    values = [
        _require(settings, p.name) if p.required else settings.get(p.name, p.default)
        for p in MEDIUM[medium].params
    ]
    tail_tol = settings.get("tail_tol", DEFAULT_TAIL_TOL)
    try:
        return OttoCycleSpec._of(medium, beta_h, beta_l, tail_tol, *values)
    except AnyonOttoError as exc:
        raise ConfigError(str(exc)) from exc


def _closed_form(efficiency, s: OttoCycleSpec, acc) -> float:
    """``cf.ring_efficiency_value`` or ``cf.cs_efficiency_value`` at ``s``.

    Both take the medium's named parameters in table order, with the two
    temperatures after the two controls.
    """
    first, second, fixed = MEDIUM[s.medium].values(s)
    return efficiency(first, second, s.beta_h, s.beta_l, fixed, acc, cf.VARIANT_REDERIVED)


# Per medium, the (value, reference) pair whose relative residual the CLI
# reports for a cycle of efficiency eta: the theta closed forms against eta for
# ring and cs-coupling, eta against the compression ratio for cs-volume.
_RESIDUALS = {
    "ring": lambda s, eta, acc: (_closed_form(cf.ring_efficiency_value, s, acc), eta),
    "cs-volume": lambda s, eta, acc: (
        eta, efficiency_cs_volume(*MEDIUM["cs-volume"].values(s)[:2])
    ),
    "cs-coupling": lambda s, eta, acc: (_closed_form(cf.cs_efficiency_value, s, acc), eta),
}


def _closed_form_residual(spec: OttoCycleSpec, efficiency: float, cfg: _RunConfig):
    """Residual of the closed-form efficiency against ``efficiency``, if any.

    ``efficiency`` is the caller's run_cycle result for ``spec``: the same
    oracle ``cf.*_efficiency_closed`` would compute, so it is not run twice.
    """
    try:
        return cf.relative_residual(*_RESIDUALS[spec.medium](spec, efficiency, cfg.accuracy))
    except AnyonOttoError:
        return None


def _parse_formats(cfg: _RunConfig) -> list:
    raw = cfg.get("format", "csv,json")
    formats = [f.strip() for f in str(raw).split(",") if f.strip()]
    if not formats:
        raise ConfigError("format list must be non-empty")
    for f in formats:
        if f not in ("csv", "json", "svg"):
            raise ConfigError(f"unknown output format: {f}")
    return formats


def _out_dir(cfg: _RunConfig, required: bool) -> Path | None:
    out = _require(cfg, "out") if required else cfg.get("out")
    if out is None:
        return None
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# The stdout labels of a cycle record's keys; its CSV header and JSON keep the keys.
_LABELS = {"q_in": "Q_in", "q_out": "Q_out", "w_out": "W_out", "residual": "closed_form_residual"}


def _cell(value) -> str:
    """A record value as text: None empty, strings without commas or newlines, numbers _fmt."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value.replace(",", ";").replace("\n", " ")
    return _fmt(value)


def _csv(header, records) -> str:
    lines = [",".join(header)] + [",".join(map(_cell, r.values())) for r in records]
    return "\n".join(lines) + "\n"


def _print_record(record: dict) -> None:
    lines = (f"{_LABELS.get(key, key)} = {_cell(v)}" for key, v in record.items() if v is not None)
    print("\n".join(lines))


# ---------------------------------------------------------------------------
# cycle
# ---------------------------------------------------------------------------


def _cmd_cycle(args) -> int:
    cfg = _RunConfig(args)
    spec = _cycle_spec(cfg)
    # A cycle writes csv and json.  svg, a sweep's plot, may stay in the list,
    # so that one config file serves every command, but cannot be all of it.
    formats = _parse_formats(cfg) if "out" in cfg else []
    if formats and not {"csv", "json"} & set(formats):
        raise ConfigError(f"cycle writes csv and json only, got format {','.join(formats)}")
    out = _out_dir(cfg, required=False)
    try:
        report = run_cycle(spec)
    except DegenerateCycle as exc:
        _print_record({"medium": spec.medium, "regime": "degenerate", "note": str(exc)})
        return EXIT_NON_ENGINE

    record = {
        "medium": spec.medium,
        "efficiency": report.efficiency,
        "regime": report.regime,
        "q_in": report.q_in,
        "q_out": report.q_out,
        "w_out": report.w_out,
        "residual": _closed_form_residual(spec, report.efficiency, cfg),
    }
    _print_record(record)
    if out is not None and "json" in formats:
        payload = {k: getattr(spec, k) for k in ("beta_h", "beta_l", "control_hot", "control_cold")}
        payload.update(record, n_levels=report.n_levels)
        payload["closed_form_residual"] = payload.pop("residual")
        (out / "cycle.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    if out is not None and "csv" in formats:
        (out / "cycle.csv").write_text(_csv(record, [record]), encoding="utf-8")
    return EXIT_OK if report.regime == REGIME_ENGINE else EXIT_NON_ENGINE


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


# One sweep row's record: the swept value, the cycle's results, and the error
# message of a row that has no cycle.
_SWEEP_KEYS = ("value", "efficiency", "q_in", "q_out", "w_out", "regime", "residual", "error")


def _parse_grid(raw: str) -> list:
    parts = str(raw).split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be start:stop:steps, got {raw!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError:
        raise ConfigError(f"grid must be numeric start:stop:steps, got {raw!r}") from None
    if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(stop - start)):
        raise ConfigError(f"grid start, stop and stop - start must be finite, got {raw!r}")
    if steps < 0:
        raise ConfigError("grid steps must be >= 0")
    if steps == 0:
        return []
    if steps == 1:
        return [start]
    # (stop - start) * k may overflow where (stop - start) * (k / n) does not.
    span, n = stop - start, steps - 1
    return [
        start + (span * k / n if math.isfinite(span * k) else span * (k / n)) for k in range(steps)
    ]


def _plot_range(values: list) -> tuple:
    """Axis limits: the values' range padded by 5% a side.

    A single value gets a width of 1, or of half its size where 1 is below
    its rounding step, so that the range never has zero width.
    """
    lo, hi = (min(values), max(values)) if values else (0.0, 1.0)
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    if hi == lo:
        lo, hi = lo - abs(lo) / 4, hi + abs(hi) / 4
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _sweep_svg(axis: str, records) -> str:
    width, height = 640, 440
    ml, mr, mt, mb = 70, 20, 20, 60
    plot_w, plot_h = width - ml - mr, height - mt - mb
    right, bottom = ml + plot_w, mt + plot_h
    pts = [
        (r["value"], r["efficiency"], r["regime"])
        for r in records
        if r["efficiency"] is not None and math.isfinite(r["efficiency"])
    ]
    x_lo, x_hi = _plot_range([p[0] for p in pts])
    y_lo, y_hi = _plot_range([p[1] for p in pts])

    def sx(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return mt + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        "<style>"
        "text{font-family:sans-serif;font-size:12px;fill:#222}"
        ".axis{stroke:#222;stroke-width:1}"
        ".grid{stroke:#ddd;stroke-width:0.5}"
        ".curve{fill:none;stroke:#999;stroke-width:1}"
        ".engine{fill:#1f77b4}.refrigerator{fill:#d62728}.degenerate{fill:#7f7f7f}"
        ".pt{stroke:#222;stroke-width:0.5}"
        "</style>",
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    for k in range(5):
        fx = x_lo + (x_hi - x_lo) * k / 4
        fy = y_lo + (y_hi - y_lo) * k / 4
        gx, gy = sx(fx), sy(fy)
        parts.append(f'<line class="grid" x1="{gx:.2f}" y1="{mt}" x2="{gx:.2f}" y2="{bottom}"/>')
        parts.append(f'<line class="grid" x1="{ml}" y1="{gy:.2f}" x2="{right}" y2="{gy:.2f}"/>')
        parts.append(f'<text x="{gx:.2f}" y="{bottom+16}" text-anchor="middle">{fx:.4g}</text>')
        parts.append(
            f'<text x="{ml-6}" y="{gy:.2f}" text-anchor="end" dominant-baseline="middle">'
            f"{fy:.4g}</text>"
        )
    parts.append(f'<line class="axis" x1="{ml}" y1="{bottom}" x2="{right}" y2="{bottom}"/>')
    parts.append(f'<line class="axis" x1="{ml}" y1="{mt}" x2="{ml}" y2="{bottom}"/>')
    parts.append(
        f'<text x="{ml+plot_w/2:.2f}" y="{height-20}" text-anchor="middle">{axis}</text>'
    )
    parts.append(
        f'<text x="18" y="{mt+plot_h/2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {mt+plot_h/2:.2f})">efficiency η</text>'
    )
    if len(pts) > 1:
        path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y, _ in pts)
        parts.append(f'<polyline class="curve" points="{path}"/>')
    for x, y, regime in pts:
        parts.append(
            f'<circle class="pt {regime}" cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="4">'
            f"<title>{axis}={x:.6g}, η={y:.6g}, {regime}</title></circle>"
        )
    legend_y = mt + 8
    for i, regime in enumerate(("engine", "refrigerator", "degenerate")):
        cy = legend_y + i * 16
        parts.append(f'<circle class="pt {regime}" cx="{right-110}" cy="{cy}" r="4"/>')
        parts.append(f'<text x="{right-100}" y="{cy+4}">{regime}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_sweep(args) -> int:
    cfg = _RunConfig(args)
    axis = _require(cfg, "sweep")
    grid = _parse_grid(_require(cfg, "grid"))
    medium = _require(cfg, "medium")
    if medium not in MEDIA:
        raise ConfigError(f"medium must be one of {MEDIA}, got {medium!r}")
    if axis not in sweep_axes(medium):
        raise ConfigError(
            f"cannot sweep {axis!r} for medium {medium!r}; "
            f"choose one of {sweep_axes(medium)}"
        )
    if axis in _TEMPERATURE_PARTNERS:
        fallback = {axis: _require(cfg, _TEMPERATURE_PARTNERS[axis])}
    else:
        fallback = {p.name: p.default for p in MEDIUM[medium].params if p.name == axis}
    template = _cycle_spec(cfg, fallback)
    out = _out_dir(cfg, required=True)
    formats = _parse_formats(cfg)

    # One row loop with sweep_efficiency, and one sharing scope for the rows'
    # windows and closed forms, so the unswept isochore's bounds and theta
    # factors come once.
    records = []
    wall_times = []
    t0 = time.perf_counter()
    with _sharing():
        for row in _sweep_rows(template, MEDIUM[medium].axis_fields[axis], grid):
            r = row.report
            values = (None,) * 6
            if r is not None:
                residual = _closed_form_residual(row.spec, r.efficiency, cfg)
                values = (r.efficiency, r.q_in, r.q_out, r.w_out, r.regime, residual)
            records.append(dict(zip(_SWEEP_KEYS, (row.value, *values, row.error))))
            t1 = time.perf_counter()
            wall_times.append(t1 - t0)
            t0 = t1

    try:
        if "csv" in formats:
            csv_text = _csv((axis,) + _SWEEP_KEYS[1:], records)
            (out / "sweep.csv").write_text(csv_text, encoding="utf-8", newline="")
        if "json" in formats:
            payload = {
                "version": __version__,
                "medium": template.medium,
                "axis": axis,
                "rows": [dict(r, wall_time_s=wt) for r, wt in zip(records, wall_times)],
            }
            (out / "sweep.json").write_text(
                json.dumps(payload, indent=2) + "\n", encoding="utf-8"
            )
        if "svg" in formats:
            (out / "sweep.svg").write_text(_sweep_svg(axis, records), encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_ERROR

    n_ok = sum(r["error"] is None for r in records)
    print(f"sweep {axis}: {len(records)} points, {n_ok} computed, written to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    cfg = _RunConfig(args)
    # A key the user leaves unset takes run_validation's own default.
    keys = ("rel_tol", "tail_tol", "seed", "variant")
    results = run_validation(**{key: cfg[key] for key in keys if key in cfg})
    worst = None
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(
            f"{status} {res.name} [{res.formula_variant}]: "
            f"max residual {res.max_residual:.3e} (threshold {res.threshold:.3e}, "
            f"{res.n_points} points, {res.n_errors} errors)"
        )
        if not res.passed and (worst is None or res.max_residual > worst.max_residual):
            worst = res
    if worst is not None:
        print(
            f"validation failed: {worst.name} [{worst.formula_variant}] "
            f"worst at {worst.worst_point}"
        )
        return EXIT_VALIDATION
    print("validation passed: all families within thresholds")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    # A command's own parser reads the rest of argv; anything else is the top level's.
    command = parser.commands.get(argv[0]) if argv else None
    try:
        args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
        if args.command == "cycle":
            return _cmd_cycle(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_validate(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (AnyonOttoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
