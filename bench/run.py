"""Benchmark driver: runs one workload in fresh child interpreters and prints its metrics.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
    python3 bench/run.py --workload all [--smoke]     # every workload, both modes, as a table
    python3 bench/run.py --write-manifest             # regenerate BENCHMARK.json

Each op runs in its own child (child.py), one child at a time, so every op
starts with cold lru caches, as every CLI call does.  A run first starts a few
set-up-only children, then starts ops until the next one would end after
--seconds.  With --trace 0 the last stdout line carries the end-to-end
metrics; with --trace 1 each untraced op is followed by a traced one and the
last line carries the per-layer metrics.  The line before it records the
environment, the inputs, the raw medians and any gate failures.  Every time is
corrected for the host's momentary speed by the child (child.HostSpeed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, PINNED_SHA256, SEED_FREE_OUTPUT, VERIFY_CHECKS, WORKLOADS, make_inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_SECONDS = 20
SETUP_SAMPLES = 8  # set-up-only children per run, after one discarded warm-up
CHILD_TIMEOUT_S = 120

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "cpu_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

_CACHE_METRICS = [
    (f"cache.{fn}.{field}", unit, better)
    for fn in ("indecomposables", "positive_roots", "ext_table", "enumerate_tilting", "tilting_quiver")
    for field, unit, better in (
        ("hits", "count", "higher"),
        ("misses", "count", "lower"),
        ("hit_ratio", "ratio", "higher"),
        ("currsize", "count", "lower"),
    )
]
PER_LAYER = [
    {"name": name, "unit": unit, "better": better}
    for name, unit, better in [
        ("rep.indecomposables_s", "s", "lower"),
        ("tilting.ext_table_s", "s", "lower"),
        ("tilting.hom_systems", "count", "lower"),
        ("tilting.enumerate_tilting_s", "s", "lower"),
        ("tilting.modules", "count", "lower"),
        ("tilting.tilting_quiver_s", "s", "lower"),
        ("tilting.arrows", "count", "lower"),
        ("tilting.completion_lookups", "count", "lower"),
        ("tilting.export_json_s", "s", "lower"),
        ("tilting.export_dot_s", "s", "lower"),
        ("tilting.output_bytes", "bytes", "lower"),
        ("tilting.hasse_check_s", "s", "lower"),
        ("tilting.hasse_pairs", "count", "lower"),
        ("verify.counts_s", "s", "lower"),
        ("verify.hasse_s", "s", "lower"),
        ("verify.degrees_s", "s", "lower"),
        ("verify.oracle_s", "s", "lower"),
        ("glue.suite_s", "s", "lower"),
        ("classify.suite_s", "s", "lower"),
        *_CACHE_METRICS,
        ("scan.orient_p50_ms", "ms", "lower"),
        ("scan.orient_tail_ms", "ms", "lower"),
        ("scan.orient_samples", "count", "higher"),
        ("trace.overhead_s", "s", "lower"),
    ]
]


def manifest():
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w["why"]} for n, w in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def environment():
    """What a result depends on besides the code: interpreter, machine, commit."""
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "pythonhashseed": "0",
        "git_commit": None,
    }
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        env["git_commit"] = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    env["src_sha256"] = digest.hexdigest()
    return env


def child_env():
    """Pinned child environment: no thread pool, fixed string hashing, no foreign path."""
    env = dict(os.environ)
    env.pop("TQ_THREADS", None)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(spec, env):
    """Start one child, wait for it, and return its record (with "errors" on failure)."""
    spec = dict(spec, t_spawn=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"errors": [f"{spec['mode']} child timed out after {CHILD_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"errors": [f"{spec['mode']} child exited {proc.returncode}: {' | '.join(tail)}"]}
    return json.loads(lines[-1])


def expectations(name, seed, smoke):
    size = "smoke" if smoke else "full"
    expect = {}
    if seed == DEFAULT_SEED or name in SEED_FREE_OUTPUT:
        expect["sha256"] = PINNED_SHA256[name][size]
    if WORKLOADS[name]["kind"] == "verify":
        expect["checks"] = VERIFY_CHECKS[size]
    return expect


def tail(values):
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    s = sorted(values)
    i = max(0, len(s) - 11)
    return s[i], 100 * (i + 1) / len(s)


def measure(name, seed, seconds, trace, smoke):
    """Run one workload for about `seconds`; returns (result line, record line)."""
    env = child_env()
    base = {"workload": name, "seed": seed, "smoke": smoke, "expect": expectations(name, seed, smoke)}
    start = time.monotonic()
    run_child(dict(base, mode="setup"), env)  # warm-up: writes bytecode caches, discarded
    setups = [run_child(dict(base, mode="setup"), env) for _ in range(SETUP_SAMPLES)]
    modes = ("run", "trace") if trace else ("run",)
    ops, last = [], 0.0
    while not ops or time.monotonic() - start + last <= seconds:
        t0 = time.monotonic()
        ops += [dict(run_child(dict(base, mode=m), env), mode=m) for m in modes]
        last = time.monotonic() - t0

    # Every op must pass its own gate and repeat the first op's output byte for byte.
    digests = {op["sha256"] for op in ops if "sha256" in op}
    for op in ops:
        if "sha256" in op and op["sha256"] != ops[0].get("sha256"):
            op["errors"] = op["errors"] + ["output differs from the first op of this run"]
    failed = sum(1 for op in ops if op["errors"])
    errors = [e for rec in setups + ops for e in rec.get("errors", [])]

    good = {m: [op for op in ops if op["mode"] == m and "wall_s" in op] for m in modes}
    med = lambda recs, key: statistics.median(r[key] for r in recs) if recs else 0.0
    setup = lambda key: statistics.median([r[key] for r in setups + ops if key in r] or [0.0])
    raw = {"setup_s": setup("setup_raw_s"), "wall_s": med(good["run"], "wall_raw_s"), "cpu_s": med(good["run"], "cpu_raw_s")}
    if not trace:
        values = {
            "setup_s": setup("setup_s"),
            "wall_s": med(good["run"], "wall_s"),
            "cpu_s": med(good["run"], "cpu_s"),
            "peak_rss_mb": med(good["run"], "peak_rss_mb"),
        }
        units = {m["name"]: m["unit"] for m in END_TO_END}
    else:
        traced = good["trace"]
        values = {
            m["name"]: statistics.median(op["layers"].get(m["name"], 0.0) for op in traced) if traced else 0.0
            for m in PER_LAYER
        }
        orient = [op["orient_ms"] for op in good["run"] if "orient_ms" in op]
        if orient:
            values["scan.orient_p50_ms"] = statistics.median(statistics.median(o) for o in orient)
            values["scan.orient_tail_ms"] = statistics.median(tail(o)[0] for o in orient)
            values["scan.orient_samples"] = len(orient[0])
        values["trace.overhead_s"] = med(traced, "wall_s") - med(good["run"], "wall_s")
        units = {m["name"]: m["unit"] for m in PER_LAYER}

    record = {
        "env": environment(),
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "inputs": make_inputs(name, seed, smoke),
        "ops": len(ops),
        "op_wall_s": [op["wall_s"] for op in good["run"]],
        "raw_medians": raw,
        "speed_factors": [op["speed_factor"] for op in good["run"]],
        "setup_samples": len(setups) + len(ops),
        "sha256_pinned": "sha256" in base["expect"],
        "sha256": sorted(digests),
        "errors": errors,
    }
    if trace and orient:
        record["scan_tail_percentile"] = tail(orient[0])[1]
    result = {
        "correct": not errors,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    return result, record


def print_table(rows):
    print(f"{'workload':<18} {'metric':<36} {'value':>14}  unit")
    for name, result in rows:
        for metric, m in result["metrics"].items():
            print(f"{name:<18} {metric:<36} {m['value']:>14.6g}  {m['unit']}")
        print(f"{name:<18} {'ops attempted / failed':<36} {result['attempted']:>8} / {result['failed']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny ranks, for the self-tests")
    parser.add_argument("--write-manifest", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "tiltquiver" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no tiltquiver sources under {ROOT / 'src'}\n")
        return 2

    if args.workload != "all":
        result, record = measure(args.workload, args.seed, args.seconds, args.trace, args.smoke)
        print(json.dumps(record))
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    rows = []
    for name in WORKLOADS:
        for trace in (0, 1):
            result, record = measure(name, args.seed, args.seconds, trace, args.smoke)
            print(json.dumps(record))
            print(json.dumps(result))
            rows.append((name, result))
    print_table(rows)
    return 0 if all(r["correct"] for _, r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
