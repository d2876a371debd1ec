#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and write BENCH_<n>.json.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR --out BENCH_4.json \
        --pairs stroke-ledger=21-30 --pairs hot-cycle=21-25 --trace stroke-ledger=3

Each directory is a checkout with ``perfbench/`` and ``src/``.  Every pair runs
``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0`` once
per side, with S the ``run_seconds`` of the parent's ``BENCHMARK.json``, one
run at a time, the parent first on even pair indices and the change first on
odd ones.  ``--trace W=N`` adds one ``--trace 1`` run per side for its
per-layer counts.  The record keeps each run's last JSON line, and per workload
and side the median and quartiles of every end-to-end metric, the summed
``attempted`` and ``failed`` counts, and how many pairs the change won per
metric.  Uses only the standard library.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def workload_arg(text: str) -> tuple:
    workload, sep, seeds = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=SEEDS, got {text!r}")
    return workload, seed_range(seeds)


def tree_sha256(root: Path, sub: str) -> str:
    digest = hashlib.sha256()
    files = (p for p in (root / sub).rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    for file in sorted(files):
        digest.update(file.relative_to(root).as_posix().encode() + b"\0")
        digest.update(file.read_bytes())
    return digest.hexdigest()


def checkout_record(path: Path) -> dict:
    """The checkout's git commit, whether its sources differ from it, and content hashes."""
    git = ["git", "-C", str(path)]
    head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
    dirty = subprocess.run(
        git + ["status", "--porcelain", "--", "src"], capture_output=True, text=True
    )
    in_git = head.returncode == 0
    return {
        "commit": head.stdout.strip() if in_git else None,
        "src_modified": bool(dirty.stdout.strip()) if in_git else None,
        "src_sha256": tree_sha256(path, "src"),
        "perfbench_sha256": tree_sha256(path, "perfbench"),
    }


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        command = " ".join(argv)
        raise RuntimeError(f"{command} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs: list) -> dict:
    out = {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "all_correct": all(r["correct"] for r in runs),
    }
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
        }
    return out


def wins(parent: list, change: list, better: str) -> int:
    sign = 1.0 if better == "higher" else -1.0
    return sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", type=workload_arg, action="append", required=True)
    parser.add_argument("--trace", type=workload_arg, action="append", default=[])
    args = parser.parse_args(argv)
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((dirs["parent"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    checkouts = {side: checkout_record(dirs[side]) for side in SIDES}
    if checkouts["parent"]["perfbench_sha256"] != checkouts["change"]["perfbench_sha256"]:
        parser.error("the two checkouts must run the same perfbench/ files")
    record = {
        "machine": {
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
        },
        "command": "python3 perfbench/run.py --workload W --seed N "
        f"--seconds {seconds:g} --trace 0",
        "checkouts": checkouts,
        "workloads": {},
        "traced": {},
    }
    for workload, seeds in args.pairs:
        runs = {side: [] for side in SIDES}
        for i, seed in enumerate(seeds):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                result = run_once(dirs[side], workload, seed, seconds, 0)
                runs[side].append(dict(result, seed=seed))
                print(f"{workload} seed {seed} {side}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      flush=True)
        entry = {"seeds": seeds, **{side: summarize(runs[side]) for side in SIDES}}
        entry["change_wins"] = {
            name: wins(
                [r["metrics"][name]["value"] for r in runs["parent"]],
                [r["metrics"][name]["value"] for r in runs["change"]],
                better[name],
            )
            for name in runs["parent"][0]["metrics"]
        }
        entry["runs"] = runs
        record["workloads"][workload] = entry
    for workload, seeds in args.trace:
        record["traced"][workload] = {side: {} for side in SIDES}
        for seed in seeds:
            for side in SIDES:
                result = run_once(dirs[side], workload, seed, seconds, 1)
                record["traced"][workload][side][seed] = dict(
                    result, metrics={k: v["value"] for k, v in result["metrics"].items()}
                )
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
