#!/usr/bin/env python3
"""Compare the CLI output of two checkouts and grade every changed closed-form residual.

    python3 bench/output_identity.py PARENT_DIR CHANGE_DIR --out rows.csv

Each checkout runs, in its own interpreter and in-process through
``cli.main``, the same command lines: the seven README commands, ``validate``
for seeds 1-3, and one round of the ``hot-cycle`` and ``bose-fermi-sweep``
inputs of ``perfbench/workloads.py`` for seeds 1-3.  For each command it
records the exit code, stdout, stderr and every written file (``sweep.json``
without its wall times), counts slow-decay warnings, and records each
residual the CLI prints: the cycle's parameters, the run_cycle efficiency
and the closed-form efficiency behind it.  It also counts, over all commands,
the direct ``_lattice_sum`` calls and terms and, where the checkout has it,
the Poisson-dual calls and terms of ``_theta_series``.

Commands whose outputs are equal on both sides are counted; for the others,
every residual whose closed-form value or run_cycle efficiency (``eta``, the
oracle route) changed gets a row in the CSV.  ``moved`` names the route or
routes that changed.  The row holds the old and new residual, the relative
distance of the old and new closed-form value to a ground-shifted mpmath
sum over the levels at 40 digits (``shifted_sums``, no theta identity), the
same distances for the old and new ``eta``, and two bounds on the rounding
error the assembly 1 - (A - B)/(C - D) admits: eps * kappa from the four
sums' errors alone, and the same with the assembly's own division and
subtraction counted (see ``grade``).  The
oracle's 1 - Q_out/Q_in has that same form (Q_in = C - D, Q_out = A - B), so
one pair of bounds serves both routes.  Each route is summarized apart: how
many of its changed rows moved closer to mpmath, and how many lie past each
bound before and after the change, with the rows that crossed it.
Needs mpmath.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

README = [
    "cycle --medium cs-volume --l1 2 --l2 1 --beta-h 0.01 --beta-l 0.1",
    "cycle --medium ring --alpha-h 0.1 --alpha-l 0.3 --beta-h 0.5 --beta-l 25"
    " --out OUT --format csv,json",
    "sweep --medium cs-coupling --alpha1 0 --beta-h 0.05 --beta-l 0.1 --sweep alpha2 --grid 0:1:11"
    " --out OUT --format csv,json,svg",
    "sweep --medium ring --alpha-h 0.1 --alpha-l 0.3 --beta-l 5 --sweep beta_h --grid 0.1:1:3"
    " --out OUT",
    "validate",
    "validate --variant paper-main-text",
    "validate --variant paper-appendix",
]
SEEDS = (1, 2, 3)


def commands(wl) -> list:
    cmds = [("readme", line.split()) for line in README]
    cmds += [("validate", ["validate", "--seed", str(s)]) for s in SEEDS]
    for seed in SEEDS:
        for inp in wl.take("hot-cycle", seed, wl.round_size("hot-cycle")):
            cmds.append((f"hot-cycle/{seed}", wl.cycle_argv(inp)))
        for inp in wl.take("bose-fermi-sweep", seed, wl.round_size("bose-fermi-sweep")):
            cmds.append((f"bose-fermi-sweep/{seed}", wl.sweep_argv(inp, "OUT")))
    return cmds


# ---------------------------------------------------------------------------
# one checkout
# ---------------------------------------------------------------------------


def run_checkout(checkout: Path, out: Path) -> None:
    sys.path[:0] = [str(checkout / "src"), str(checkout)]
    from perfbench import workloads as wl
    from anyon_otto import cli
    from anyon_otto import closed_form as cf
    from anyon_otto import special_functions as sf

    counts = Counter()
    lattice_sum = sf._lattice_sum

    def counted_lattice_sum(*args, **kwargs):
        rep = lattice_sum(*args, **kwargs)
        counts["direct_calls"] += 1
        counts["direct_terms"] += rep.terms_used
        return rep

    for module in (sf, cf):
        if hasattr(module, "_lattice_sum"):
            module._lattice_sum = counted_lattice_sum
    if hasattr(sf, "_theta_series"):
        theta_series = sf._theta_series

        def counted_theta_series(lam, gamma, weight, one_sided, acc):
            rep = theta_series(lam, gamma, weight, one_sided, acc)
            if not one_sided and lam < sf.SLOW_DECAY_LAMBDA * (1.0 - 1e-9):
                counts["dual_calls"] += 1
                counts["dual_terms"] += rep.terms_used
            return rep

        sf._theta_series = cf._theta_series = counted_theta_series

    residuals = []
    for medium, pair in list(cli._RESIDUALS.items()):

        def recorded(s, eta, acc, *reuse, pair=pair):
            value, reference = pair(s, eta, acc, *reuse)
            residuals.append({
                "medium": s.medium, "hot": s.control_hot, "cold": s.control_cold,
                "beta_h": s.beta_h, "beta_l": s.beta_l, "eps0": s.eps0, "length": s.cs_length,
                "alpha": s.cs_alpha, "eta": eta,
                # cs-volume's pair is (eta, compression ratio); the others' (closed form, eta)
                "value": reference if s.medium == "cs-volume" else value,
            })
            return value, reference

        cli._RESIDUALS[medium] = recorded

    records = []
    for tag, argv in commands(wl):
        tmp = tempfile.mkdtemp()
        argv = [tmp if a == "OUT" else a for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        residuals.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main(argv)
        files = {}
        for path in sorted(Path(tmp).iterdir()):
            text = path.read_text(encoding="utf-8")
            if path.name == "sweep.json":
                payload = json.loads(text)
                for row in payload["rows"]:
                    del row["wall_time_s"]
                text = json.dumps(payload, indent=2)
            files[path.name] = text
        shutil.rmtree(tmp)
        records.append({
            "tag": tag,
            "argv": ["OUT" if a == tmp else a for a in argv],
            "rc": rc,
            "stdout": stdout.getvalue().replace(tmp, "OUT"),
            "stderr": stderr.getvalue().replace(tmp, "OUT"),
            "files": files,
            "slow_decay_warnings": sum("slow Gaussian decay" in str(w.message) for w in caught),
            "residuals": list(residuals),
        })
    out.write_text(json.dumps({"records": records, "counts": dict(counts)}), encoding="utf-8")


# ---------------------------------------------------------------------------
# mpmath reference: ground-shifted direct sums
# ---------------------------------------------------------------------------

DIGITS = 40
# Levels whose ground-shifted exponent beta (E - E_0) passes this are left out:
# 3 labels past the first excited one, their weights lie below e^-120 of it.
EXPONENT_CUT = 120


def _axis(centre, decay) -> list:
    """The integers within sqrt(EXPONENT_CUT / decay) + 3 of ``centre``."""
    reach = math.sqrt(EXPONENT_CUT / float(decay)) + 3
    return list(range(math.floor(float(centre) - reach), math.ceil(float(centre) + reach) + 1))


def _union(ranges) -> list:
    return list(range(min(r[0] for r in ranges), max(r[-1] for r in ranges) + 1))


def shifted_sums(row) -> tuple:
    """(A', B', C', D') with eta = 1 - (A' - B')/(C' - D'), and the grounds (E_cold,0, E_hot,0).

    A' and B' sum the cold isochore's ground-shifted energies E - E_0, C' and D'
    the hot one's, over the hot (A', C') and cold (B', D') Gibbs states, each
    weighted by exp(-beta (E - E_0)) of its own spectrum: a direct sum over
    the levels, no theta identity.  With A = A' + E_cold,0 and so on, these are
    the sums the closed form assembles, but the ground's term is 0 in each,
    however close to 1 both ground populations are.  The pair's levels are
    its (n1 <= n2) pairs, E = 2 unit ((n1 + alpha/2)^2 + (n2 - alpha/2)^2), and
    each weight is a row factor times a column factor.
    """
    import mpmath

    beta = {"hot": mpmath.mpf(row["beta_h"]), "cold": mpmath.mpf(row["beta_l"])}
    if row["medium"] == "ring":
        eps0 = mpmath.mpf(row["eps0"])
        flux = {side: mpmath.mpf(row[side]) for side in beta}
        labels = _union([_axis(flux[s], beta[s] * eps0) for s in beta])
        energy = {s: [eps0 * (n - flux[s]) ** 2 for n in labels] for s in beta}
        ground = {s: min(energy[s]) for s in beta}
        shifted = {s: [e - ground[s] for e in energy[s]] for s in beta}
        sums = {}
        for state in beta:
            weights = [mpmath.exp(-beta[state] * x) for x in shifted[state]]
            z = mpmath.fsum(weights)
            for side in beta:
                sums[side, state] = mpmath.fsum(x * w for x, w in zip(shifted[side], weights)) / z
    else:
        if row["medium"] == "cs-volume":
            unit = {s: mpmath.pi**2 / mpmath.mpf(row[s]) ** 2 for s in beta}
            alpha = dict.fromkeys(beta, mpmath.mpf(row["alpha"]))
        else:
            unit = dict.fromkeys(beta, mpmath.pi**2 / mpmath.mpf(row["length"]) ** 2)
            alpha = {s: mpmath.mpf(row[s]) for s in beta}
        rows = _union([_axis(-alpha[s] / 2, 2 * beta[s] * unit[s]) for s in beta])
        cols = _union([_axis(alpha[s] / 2, 2 * beta[s] * unit[s]) for s in beta])
        # E = x(n1) + y(n2); for alpha >= 0 the least x and the least y lie at
        # n1 <= 0 <= n2, so their sum is the least level
        x = {s: [2 * unit[s] * (n + alpha[s] / 2) ** 2 for n in rows] for s in beta}
        y = {s: [2 * unit[s] * (n - alpha[s] / 2) ** 2 for n in cols] for s in beta}
        x = {s: [v - min(x[s]) for v in x[s]] for s in beta}
        y = {s: [v - min(y[s]) for v in y[s]] for s in beta}
        ground = {
            s: 2 * unit[s] * (min((n + alpha[s] / 2) ** 2 for n in rows)
                              + min((n - alpha[s] / 2) ** 2 for n in cols))
            for s in beta
        }
        sums = {}
        for state in beta:
            f = [mpmath.exp(-beta[state] * v) for v in x[state]]
            g = [mpmath.exp(-beta[state] * v) for v in y[state]]
            z, totals = [], {side: [] for side in beta}
            for i, n1 in enumerate(rows):
                for j in range(bisect.bisect_left(cols, n1), len(cols)):
                    w = f[i] * g[j]
                    z.append(w)
                    for side in beta:
                        totals[side].append((x[side][i] + y[side][j]) * w)
            z = mpmath.fsum(z)
            for side in beta:
                sums[side, state] = mpmath.fsum(totals[side]) / z
    return (
        sums["cold", "hot"], sums["cold", "cold"], sums["hot", "hot"], sums["hot", "cold"],
        ground["cold"], ground["hot"],
    )


def grade(row, values) -> tuple:
    """(relative distance of each efficiency value to mpmath, eps * kappa, eps * kappa_rounded).

    The exact eta = 1 - (A' - B')/(C' - D') comes from ``shifted_sums`` at
    ``DIGITS`` digits.  With eta = 1 - rho and rho = (A - B)/(C - D) over the
    unshifted sums the closed form assembles, relative errors of eps in A,
    B, C and D move eta by eps * kappa, where
    kappa = |rho/eta| ((|A|+|B|)/|A-B| + (|C|+|D|)/|C-D|).  The assembly then
    rounds twice more, each time by at most eps/2 relative: the division
    moves rho, and so eta, by |rho/eta| eps/2, and the final subtraction moves
    eta by eps/2.  kappa_rounded = kappa + (|rho/eta| + 1)/2 counts both; where
    kappa < 1, kappa alone lies below one ulp of eta, so a correctly rounded
    eta can exceed it.
    """
    import mpmath

    with mpmath.workdps(DIGITS):
        a1, b1, c1, d1, cold0, hot0 = shifted_sums(row)
        rho = (a1 - b1) / (c1 - d1)
        exact = 1 - rho
        a, b, c, d = a1 + cold0, b1 + cold0, c1 + hot0, d1 + hot0
        kappa = abs(rho / exact) * ((abs(a) + abs(b)) / abs(a - b) + (abs(c) + abs(d)) / abs(c - d))
        rounded = kappa + (abs(rho / exact) + 1) / 2
        distances = [float(abs((mpmath.mpf(v) - exact) / exact)) for v in values]
        return distances, float(kappa) * 2.0**-52, float(rounded) * 2.0**-52


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

WORKER = "--worker"
FIELDS = (
    "workload", "medium", "beta_h", "beta_l", "control_hot", "control_cold", "moved",
    "residual_old", "residual_new", "mpmath_distance_old", "mpmath_distance_new",
    "eta_distance_old", "eta_distance_new", "eps_kappa", "eps_kappa_rounded",
)
# The two bounds each route is counted against: the sums' errors alone, and
# those plus the assembly's own roundings (see ``grade``).
BOUNDS = (("eps kappa", "eps_kappa"), ("eps kappa_rounded", "eps_kappa_rounded"))
# Each route's CSV columns: its old and new distance to mpmath.
ROUTES = (
    ("closed_form", "value", "mpmath_distance_old", "mpmath_distance_new"),
    ("oracle", "eta", "eta_distance_old", "eta_distance_new"),
)
DISTANCES = tuple(column for _, _, *pair in ROUTES for column in pair)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == [WORKER]:  # one checkout in a fresh interpreter: CHECKOUT DUMP_JSON
        run_checkout(Path(argv[1]).resolve(), Path(argv[2]))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True, help="CSV of the changed residuals")
    args = parser.parse_args(argv)

    sides = {}
    with tempfile.TemporaryDirectory() as tmp:
        for side, checkout in (("parent", args.parent), ("change", args.change)):
            dump = Path(tmp) / f"{side}.json"
            subprocess.run([sys.executable, __file__, WORKER, str(checkout), str(dump)], check=True)
            sides[side] = json.loads(dump.read_text(encoding="utf-8"))

    keys = ("rc", "stdout", "stderr", "files")
    old_records, new_records = sides["parent"]["records"], sides["change"]["records"]
    same = Counter()
    changed = Counter()
    rows = []
    for old, new in zip(old_records, new_records):
        group = old["tag"].split("/")[0]
        if all(old[k] == new[k] for k in keys):
            same[group] += 1
            continue
        changed[group] += 1
        for r_old, r_new in zip(old["residuals"], new["residuals"]):
            moved = [route for route, key, _, _ in ROUTES if r_old[key] != r_new[key]]
            if not moved:
                continue
            values = [r[key] for _, key, _, _ in ROUTES for r in (r_old, r_new)]
            distances, eps_kappa, eps_kappa_rounded = grade(r_old, values)
            row = {
                "workload": old["tag"], "medium": r_old["medium"],
                "beta_h": repr(r_old["beta_h"]), "beta_l": repr(r_old["beta_l"]),
                "control_hot": repr(r_old["hot"]), "control_cold": repr(r_old["cold"]),
                "moved": "+".join(moved),
                "residual_old": f"{abs(r_old['value'] - r_old['eta']) / abs(r_old['eta']):.3e}",
                "residual_new": f"{abs(r_new['value'] - r_new['eta']) / abs(r_new['eta']):.3e}",
                "eps_kappa": f"{eps_kappa:.3e}",
                "eps_kappa_rounded": f"{eps_kappa_rounded:.3e}",
                **{column: f"{d:.3e}" for column, d in zip(DISTANCES, distances)},
            }
            rows.append(row)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)

    validates = [r for r in new_records if r["tag"] == "readme" and r["argv"][0] == "validate"]
    print(f"identical commands: {dict(same)}")
    print(f"changed commands:   {dict(changed)}")
    for r in validates:
        digest = hashlib.sha256(r["stdout"].encode()).hexdigest()[:16]
        print(f"{' '.join(r['argv'])} stdout sha256: {digest}")
    for side in ("parent", "change"):
        warned = sum(r["slow_decay_warnings"] for r in sides[side]["records"])
        print(f"{side}: series counts {sides[side]['counts']}, slow-decay warnings {warned}")
    print(f"changed residuals: {len(rows)}")
    for route, _, key_old, key_new in ROUTES:
        graded = [r for r in rows if route in r["moved"].split("+")]
        away = [r for r in graded if float(r[key_new]) > float(r[key_old])]
        closer = len(graded) - len(away)
        print(f"{route} route changed in {len(graded)}: "
              f"closer to mpmath {closer}, further {len(away)}")
        for key in (key_old, key_new):
            values = sorted(float(r[key]) for r in graded)
            if values:
                print(f"  {key}: max {values[-1]:.3e}, median {values[len(values) // 2]:.3e}, "
                      f"sum {sum(values):.3e}")
        worst = max((float(r[key_new]) / float(r["eps_kappa"]) for r in away), default=0.0)
        print(f"  largest new distance / (eps kappa) among rows that moved further: {worst:.2f}")
        # Past each bound before and after the change, over every row this
        # route changed, and the rows that crossed the bound each way.
        for name, bound in BOUNDS:
            before = {id(r) for r in graded if float(r[key_old]) > float(r[bound])}
            after = {id(r) for r in graded if float(r[key_new]) > float(r[bound])}
            print(f"  past {name}: {len(before)} before, {len(after)} after; crossed outward "
                  f"{len(after - before)}, inward {len(before - after)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
