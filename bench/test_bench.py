"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest bench -q

They use the smoke sizes, so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

BENCH = Path(__file__).resolve().parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args, cwd=run.ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc


def test_benchmark_json_is_generated_from_the_code():
    on_disk = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert on_disk == run.manifest()


def test_manifest_keeps_the_format_limits():
    m = run.manifest()
    assert set(m) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(m["workloads"]) <= 8 and 1 <= len(m["per_layer"]) <= 128
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in m[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in m["workloads"])
    assert all(UNIT.match(x["unit"]) for x in m["end_to_end"] + m["per_layer"])
    bounds = {x["name"]: x["bound"] for x in m["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric_of_the_manifest(name, trace):
    proc = bench("--workload", name, "--smoke", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = run.manifest()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    record = json.loads(proc.stdout.splitlines()[-2])
    assert record["sha256_pinned"] and not record["errors"]
    assert {"python", "nproc", "platform", "git_commit", "src_sha256"} <= set(record["env"])


def _child(name, expect, mode="run"):
    spec = {"workload": name, "seed": workloads.DEFAULT_SEED, "smoke": True, "expect": expect, "mode": mode}
    return run.run_child(spec, run.child_env())


@pytest.mark.parametrize("mode", ["run", "trace"])
def test_tampered_count_fails_the_op(mode):
    good = _child("graph-d9alt-dot", {}, mode)
    assert good["errors"] == []
    bad = _child("graph-d9alt-dot", {"counts": [77, 166]}, mode)
    assert any("closed form (77, 166)" in e for e in bad["errors"])


def test_tampered_digest_and_check_count_fail_the_run(monkeypatch):
    monkeypatch.setitem(workloads.PINNED_SHA256["verify-all"], "smoke", "0" * 64)
    result, record = run.measure("verify-all", 7, 0, 0, True)
    assert not result["correct"] and result["failed"] == result["attempted"] == 1
    assert any("pinned " + "0" * 64 in e for e in record["errors"])

    monkeypatch.undo()
    monkeypatch.setitem(workloads.VERIFY_CHECKS, "smoke", 247)
    result, record = run.measure("verify-all", 7, 0, 0, True)
    assert not result["correct"] and result["failed"] == 1
    assert any("expected 247" in e for e in record["errors"])


def test_child_environment_is_pinned(monkeypatch):
    monkeypatch.setenv("TQ_THREADS", "4")
    monkeypatch.setenv("PYTHONPATH", "/nonexistent")
    monkeypatch.setenv("PYTHONHASHSEED", "123")
    env = run.child_env()
    assert "TQ_THREADS" not in env and "PYTHONPATH" not in env
    assert env["PYTHONHASHSEED"] == "0"


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "verify-all", "--smoke", "--seconds", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_inputs_are_a_function_of_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.make_inputs(name, 5) == workloads.make_inputs(name, 5)
    seen = set()
    for seed in range(20):
        argv = workloads.make_inputs("graph-d9alt-dot", seed)["argv"]
        seen.add(argv[argv.index("--orientation") + 1])
    assert len(seen) == 4 and "11111111" not in seen and "00000000" not in seen
    orders = {tuple(workloads.make_inputs("scan-d7", seed)["order"]) for seed in range(5)}
    assert len(orders) == 5 and all(sorted(o) == sorted(next(iter(orders))) for o in orders)


def test_orbit_members_are_isomorphic_or_opposite():
    assert workloads.orientation_orbit("A", "110") == ["110", "100", "001", "011"]
    assert workloads.orientation_orbit("A", "1010101") == ["1010101", "0101010"]
    assert workloads.orientation_orbit("D", "10110110") == ["10110110", "10110101", "01001001", "01001010"]
    sys.path.insert(0, str(run.ROOT / "src"))
    import tiltquiver as tq

    # Isomorphic or dual posets: same size, same arrow count, same degree histogram.
    for kind, rank, base in [("A", 6, "11010"), ("D", 6, "10110")]:
        shapes = set()
        for bits in workloads.orientation_orbit(kind, base):
            flags = [c == "1" for c in bits]
            q = tq.path_quiver(rank, flags) if kind == "A" else tq.d_quiver(rank - 1, flags)
            g = tq.tilting_quiver(q)
            shapes.add((len(g.nodes), len(g.arrows), tuple(tq.degree_stats(g).histogram.items())))
        assert len(shapes) == 1


def test_tail_leaves_ten_samples_beyond():
    value, pct = run.tail(range(64))
    assert value == 53 and pct == 100 * 54 / 64
    assert sum(1 for x in range(64) if x > value) == 10
