"""The summary of tools/bench_pairs.py on made-up runs, and its extraction
of a base revision."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def run(wall, rss, setup, failed=0, correct=True):
    values = {"wall_s": wall, "peak_rss_mb": rss, "setup_s": setup}
    return {"correct": correct, "attempted": 20, "failed": failed,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}


def pairs(base, change):
    return [{"seed": i, "first": "base", "base": b, "change": c}
            for i, (b, c) in enumerate(zip(base, change))]


def test_gain_wins_and_bounds():
    base = [run(1.0 + 0.01 * i, 50.0, 0.2) for i in range(10)]
    change = [run(0.7 + 0.01 * i, 50.0 + 0.5 * i, 0.2) for i in range(9)] + [run(1.5, 60.0, 0.2)]
    s = bench_pairs.summarize(pairs(base, change), END_TO_END)
    wall = s["wall_s"]
    assert wall["base"]["median"] == pytest.approx(1.045)
    assert wall["base"]["iqr"] == pytest.approx(0.045)
    assert wall["change"]["median"] == pytest.approx(0.745)
    assert (wall["pairs_won"], wall["pairs"]) == (9, 10)
    assert wall["gain_claimable"] and wall["within_bound"]
    rss = s["peak_rss_mb"]
    assert rss["pairs_won"] == 0 and not rss["gain_claimable"]
    assert rss["change"]["median"] == pytest.approx(52.25) and rss["within_bound"]
    assert s["setup_s"]["pairs_won"] == 0 and not s["setup_s"]["gain_claimable"]


def test_regression_beyond_bound_and_failures():
    base = [run(1.0, 50.0, 0.2) for _ in range(4)]
    change = [run(1.3, 56.0, 0.2, failed=1, correct=i != 2) for i in range(4)]
    s = bench_pairs.summarize(pairs(base, change), END_TO_END)
    assert not s["wall_s"]["within_bound"] and not s["peak_rss_mb"]["within_bound"]
    assert s["setup_s"]["within_bound"]
    assert s["base_runs"] == {"all_correct": True, "attempted": 80, "failed": 0}
    assert s["change_runs"] == {"all_correct": False, "attempted": 80, "failed": 4}


def test_src_lines_counts_python_sources_under_src(tmp_path):
    (tmp_path / "src" / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "__pycache__").mkdir()
    (tmp_path / "src" / "pkg" / "a.py").write_text("import os\n\nx = 1\n")
    (tmp_path / "src" / "pkg" / "sub" / "b.py").write_text("y = 2\nz = 3")  # no final newline
    (tmp_path / "src" / "pkg" / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "src" / "pkg" / "__pycache__" / "a.cpython-311.pyc").write_bytes(b"\n\n\n")
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "c.py").write_text("outside src\n")
    assert bench_pairs.src_lines(tmp_path) == 4


def test_extract_writes_the_files_of_a_commit(tmp_path):
    repo, dest = tmp_path / "repo", tmp_path / "out" / "base"
    (repo / "src" / "pkg").mkdir(parents=True)
    (repo / "src" / "pkg" / "a.py").write_text("x = 1\ny = 2\n")
    (repo / "README").write_text("top\n")

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=repo,
                       check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "first")
    # later edits, committed or not, are not in the extracted commit
    (repo / "src" / "pkg" / "a.py").write_text("x = 1\n")
    (repo / "src" / "pkg" / "b.py").write_text("z = 3\n")
    git("add", "-A")
    git("commit", "-q", "-m", "second")
    (repo / "src" / "pkg" / "c.py").write_text("w = 4\n")
    dest.mkdir(parents=True)
    (dest / "stale.py").write_text("left over\n")
    bench_pairs.extract("HEAD~1", dest, repo)
    assert sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file()) == \
        ["README", "src/pkg/a.py"]
    assert bench_pairs.src_lines(dest) == 2
    bench_pairs.extract("HEAD", dest, repo)
    assert bench_pairs.src_lines(dest) == 2 and (dest / "src" / "pkg" / "b.py").exists()
    assert not (dest / "src" / "pkg" / "c.py").exists()


MACHINE_RUN = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("bench_pairs", sys.argv[1])
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)
recorded = bench_pairs.machine()["numpy"]
print("numpy" in sys.modules)
import numpy
print(recorded == numpy.__version__)
"""


def test_machine_record_does_not_import_numpy():
    """The runs inherit the peak resident memory of the process that starts
    them, so recording the machine must not import numpy into it."""
    script = str(ROOT / "tools" / "bench_pairs.py")
    proc = subprocess.run([sys.executable, "-c", MACHINE_RUN, script], capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.split() == ["False", "True"]
