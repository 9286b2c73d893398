"""Paired benchmark runs of a base revision against the current checkout.

Usage, from anywhere in a checkout:

    python3 tools/bench_pairs.py --base HEAD~1 --label parabolic_ints \
        --pairs 10 --first-seed 3101

The files of the base revision are extracted with ``git archive <base> |
tar -x`` into ``.bench_build/base``, which is removed again at the end.
Both checkouts get ``python -m compileall -q -f src``, so that no run pays
for compiling the sources (which would count in ``peak_rss_mb`` and
``setup_s``).  For every workload of ``BENCHMARK.json``, pair i runs
``perfbench/run.py --trace 0`` of each checkout, unchanged, on seed
``first-seed + i`` for the ``run_seconds`` of ``BENCHMARK.json``; the base
runs first in even pairs and second in odd ones.

The result is ``BENCH_<label>.json`` at the root of the checkout: the
machine, both commits, the git tree of ``src`` that each side ran (the
change's taken from its working tree, so uncommitted edits are named too),
the line count of ``src/**/*.py`` of each side (the extracted base and the
change's working tree), every run's output, and per workload and end-to-end
metric the medians and interquartile ranges, the pairs the change won, the
bound of ``BENCHMARK.json`` and whether the change's median stays inside it,
whether the comparison is unresolved (the base's interquartile range is
wider than the bound, and not every run of the change is better than every
run of the base), and whether a gain may be claimed (the change wins at
least nine tenths of the pairs and the medians differ by more than the
base's interquartile range).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASE_DIR = ROOT / ".bench_build" / "base"


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev: str, dest: Path, repo: Path = ROOT) -> None:
    """Write the files of commit ``rev`` of ``repo`` into ``dest``, emptied
    first: ``git archive rev | tar -x``."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", rev], cwd=repo, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise subprocess.CalledProcessError(archive.returncode, archive.args)


def compile_sources(checkout: Path) -> None:
    subprocess.run([sys.executable, "-m", "compileall", "-q", "-f", "src"], cwd=checkout,
                   check=True)


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``perfbench/run.py`` run; its last line of output, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=4 * seconds + 600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list, end_to_end: list) -> dict:
    """Per metric of ``end_to_end`` (the entries of BENCHMARK.json): both
    sides' medians and IQRs, pairs won by the change, bound status, whether
    the comparison is unresolved and whether a gain may be claimed; and both
    sides' correctness and failures."""
    out = {}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        side = {s: [p[s]["metrics"][name]["value"] for p in pairs] for s in ("base", "change")}
        (b1, base, b3), (c1, change, c3) = quartiles(side["base"]), quartiles(side["change"])
        wins = sum((c < b) if lower else (c > b) for b, c in zip(side["base"], side["change"]))
        gain = (base - change) if lower else (change - base)
        spread_exceeds_bound = b3 - b1 > metric["bound"] * abs(base)
        all_runs_better = (max(side["change"]) < min(side["base"]) if lower
                           else min(side["change"]) > max(side["base"]))
        out[name] = {
            "unit": metric["unit"],
            "base": {"median": base, "iqr": b3 - b1},
            "change": {"median": change, "iqr": c3 - c1},
            "relative_change": change / base - 1,
            "pairs_won": wins,
            "pairs": len(pairs),
            "bound": metric["bound"],
            "within_bound": -gain <= metric["bound"] * abs(base),
            "base_spread_exceeds_bound": spread_exceeds_bound,
            "unresolved": spread_exceeds_bound and not all_runs_better,
            "gain_claimable": 10 * wins >= 9 * len(pairs) and gain > b3 - b1,
        }
    for s in ("base", "change"):
        out[f"{s}_runs"] = {
            "all_correct": all(p[s]["correct"] for p in pairs),
            "attempted": sum(p[s]["attempted"] for p in pairs),
            "failed": sum(p[s]["failed"] for p in pairs),
        }
    return out


def src_tree(rev: str) -> str:
    """The git tree hash of ``src`` at ``rev``."""
    return git("rev-parse", f"{rev}:src")


def src_lines(checkout: Path) -> int:
    """Lines of ``src/**/*.py`` in ``checkout``, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src").rglob("*.py"))


def machine() -> dict:
    # numpy's version comes from its package metadata, not an import: Linux
    # keeps ru_maxrss across exec, so each run this process starts would
    # report at least this process's peak resident memory as its peak_rss_mb
    return {"cpu_count": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": metadata.version("numpy")}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    seconds = bench["run_seconds"]

    base = git("rev-parse", f"{args.base}^{{commit}}")
    # a commit of the working tree (tracked files, staged new ones included)
    worktree = git("stash", "create") or "HEAD"
    commits = {
        "base": base,
        "change": git("rev-parse", "HEAD"),
        "change_has_uncommitted_edits": bool(git("status", "--porcelain", "--untracked-files=no")),
        "base_src_tree": src_tree(base),
        "change_src_tree": src_tree(worktree),
    }
    extract(commits["base"], BASE_DIR)
    result = {"machine": machine(), "commits": commits, "seconds": seconds,
              "src_lines": {"base": src_lines(BASE_DIR), "change": src_lines(ROOT)},
              "workloads": {}}
    try:
        for checkout in (BASE_DIR, ROOT):
            compile_sources(checkout)
        checkouts = {"base": BASE_DIR, "change": ROOT}
        for workload in names:
            pairs = []
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {"seed": seed, "first": order[0]}
                for s in order:
                    pair[s] = run_once(checkouts[s], workload, seed, seconds)
                pairs.append(pair)
                print(f"bench_pairs: {workload} pair {i + 1}/{args.pairs} (seed {seed}): "
                      + ", ".join(f"{s} wall_s {pair[s]['metrics']['wall_s']['value']:.4f}"
                                  for s in ("base", "change")), file=sys.stderr)
            result["workloads"][workload] = {
                "summary": summarize(pairs, bench["end_to_end"]), "pairs": pairs}
    finally:
        shutil.rmtree(BASE_DIR)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
