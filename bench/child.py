"""One benchmark op in a fresh interpreter: set up, run the timed section, gate the output.

    python3 bench/child.py SPEC_JSON

run.py builds SPEC_JSON and reads the single JSON line this prints.  Modes:

* "setup" stops after set-up (import tiltquiver and generate the inputs);
* "run" times the entry points a user calls: `cli.main`, the reflect-scan
  body (`tilting_quiver` per orientation) and `hasse_check`;
* "trace" calls each layer's public function on its own, in dependency
  order, and times every call from here.  A layer's dependencies are cached
  by the time it runs, so each time is close to that layer's own time.

Every op starts with cold lru caches, because every CLI call does.  Every
time is reported twice: as measured (`*_raw_s`) and corrected for the host's
momentary speed (see HostSpeed).
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from collections import defaultdict
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

from workloads import make_inputs, params

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE_PERIOD_S = 0.02
# Probe time at the speed the corrected times are expressed in: a quiet moment
# of the 2-vCPU host where the baseline was recorded.
PROBE_S = 0.0008

# verify suite -> per-layer metric, in verify.SUITE_ORDER.
SUITE_METRIC = {
    "counts": "verify.counts_s",
    "hasse": "verify.hasse_s",
    "degrees": "verify.degrees_s",
    "oracle": "verify.oracle_s",
    "glue": "glue.suite_s",
    "taxonomy": "classify.suite_s",
}


def probe():
    """A fixed sliver of the kind of work the program does: tuples, dicts, big-int masks."""
    acc, mask = {}, 0
    for i in range(3000):
        t = (i, i & 7, i * 3)
        acc[t[1]] = acc.get(t[1], 0) + t[2] % 7
        mask |= 1 << (i & 63)
    return mask + acc[0] + Fraction(mask, 3).denominator


class HostSpeed:
    """Samples how fast this host runs Python, every PROBE_PERIOD_S, from a timer signal.

    On a VM whose cores are shared with other machines the same op can take
    0.35 s one second and 0.6 s the next (2-vCPU Xeon VM), and slow phases
    last minutes, so medians of raw times do not settle.  A short probe timed from
    SIGALRM throughout an op measures the speed the op actually got.  A time
    is corrected as (raw time - probe time inside it) * mean(PROBE_S / probe
    time), which reads in seconds at the speed where a probe takes PROBE_S.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # total probe time, to subtract from enclosing timings

    def sample(self, *_):
        t0 = time.perf_counter()
        probe()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def factor(self, first=0):
        """Speed correction from the samples taken since index `first`."""
        return statistics.fmean(PROBE_S / x for x in self.samples[first:])


def import_tiltquiver():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "tiltquiver" / "__init__.py").is_file():
        sys.exit(f"bench: no tiltquiver sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tiltquiver
    from tiltquiver import cli, rep, tilting, verify

    if Path(tiltquiver.__file__).resolve().parent != SRC / "tiltquiver":
        sys.exit(f"bench: imported tiltquiver from {tiltquiver.__file__}, not {SRC}")
    return tiltquiver, cli, rep, tilting, verify


def build_quiver(tq_mod, kind, rank, bits):
    """The quiver the CLI builds for --type/--rank/--orientation."""
    flags = [c == "1" for c in bits]
    if kind == "A":
        return tq_mod.path_quiver(rank, flags)
    return tq_mod.d_quiver(rank - 1, flags)


class Gate:
    """Collects failed correctness checks of one op."""

    def __init__(self, expect):
        self.expect = expect
        self.errors = []

    def check(self, ok, message):
        if not ok:
            self.errors.append(message)

    def counts(self, label, got, closed_form):
        want = tuple(self.expect.get("counts") or closed_form)
        self.check(tuple(got) == want, f"{label}: counts {tuple(got)}, closed form {want}")

    def digest(self, text):
        got = hashlib.sha256(text.encode()).hexdigest()
        want = self.expect.get("sha256")
        self.check(not want or got == want, f"sha256 {got}, pinned {want}")
        return got


class Trace:
    """Per-layer time and lru-cache deltas, taken around public calls."""

    def __init__(self, rep, tilting, speed):
        self.fns = {
            "indecomposables": rep.indecomposables,
            "positive_roots": rep.positive_roots,
            "ext_table": tilting.ext_table,
            "enumerate_tilting": tilting.enumerate_tilting,
            "tilting_quiver": tilting.tilting_quiver,
        }
        self.speed = speed
        self.metrics = defaultdict(float)

    def call(self, metric, fn, *args):
        before = {k: f.cache_info() for k, f in self.fns.items()}
        spent = self.speed.spent
        t0 = time.perf_counter()
        out = fn(*args)
        self.metrics[metric] += time.perf_counter() - t0 - (self.speed.spent - spent)
        for k, f in self.fns.items():
            info = f.cache_info()
            self.metrics[f"cache.{k}.hits"] += info.hits - before[k].hits
            self.metrics[f"cache.{k}.misses"] += info.misses - before[k].misses
        return out

    def finish(self, factor):
        out = {k: v * factor if k.endswith("_s") else v for k, v in self.metrics.items()}
        for k, f in self.fns.items():
            hits = out[f"cache.{k}.hits"]
            total = hits + out[f"cache.{k}.misses"]
            out[f"cache.{k}.hit_ratio"] = hits / total if total else 0.0
            out[f"cache.{k}.currsize"] = f.cache_info().currsize
        return out


def traced_quiver(tr, rep, tilting, q):
    """rep -> ext_table -> enumerate_tilting -> tilting_quiver, one timed call each."""
    tr.call("rep.indecomposables_s", rep.indecomposables, q)
    misses = tilting.ext_table.cache_info().misses
    table = tr.call("tilting.ext_table_s", tilting.ext_table, q)
    if tilting.ext_table.cache_info().misses > misses:
        tr.metrics["tilting.hom_systems"] += len(table) ** 2
    mods = tr.call("tilting.enumerate_tilting_s", tilting.enumerate_tilting, q)
    tr.metrics["tilting.modules"] += len(mods)
    tq = tr.call("tilting.tilting_quiver_s", tilting.tilting_quiver, q)
    tr.metrics["tilting.arrows"] += len(tq.arrows)
    tr.metrics["tilting.completion_lookups"] += len(tq.nodes) * len(q.vertices)
    return table, tq


def graph_counts(text, fmt):
    if fmt == "json":
        data = json.loads(text)
        return len(data["nodes"]), len(data["arrows"])
    lines = text.splitlines()
    return (
        sum(1 for line in lines if "[label=" in line),
        sum(1 for line in lines if " -> " in line),
    )


def scan_text(lines):
    """The text reflect-scan prints for these (bits, (vertices, arrows)) lines."""
    out = [f"orientation={b} vertices={v} arrows={a}\n" for b, (v, a) in sorted(lines)]
    out.append(f"distinct={len({key for _, key in lines})}\n")
    return "".join(out)


def verify_text(results, suite, max_rank):
    """The JSON report `tiltquiver verify` prints for these results."""
    payload = {
        "suite": suite,
        "max_rank": max_rank,
        "checks": [
            {"check": r.check, "instance": r.instance, "status": r.status}
            | ({"counterexample": r.detail} if r.detail else {})
            for r in results
        ],
        "failures": sum(1 for r in results if r.status != "pass"),
    }
    return json.dumps(payload) + "\n"


def timed_section(p, inputs, mods, tr, speed):
    """Run the op; returns (text, exit code, per-op detail for the gate, scan latencies)."""
    cli, rep, tilting, verify = mods
    kind = p["kind"]
    if kind in ("graph", "verify") and tr is None:
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = cli.main(inputs["argv"])
        return buf.getvalue(), rc, None, None
    if kind == "graph":
        _, tq = traced_quiver(tr, rep, tilting, inputs["quiver"])
        if p["format"] == "json":
            text = tr.call("tilting.export_json_s", lambda: json.dumps(tilting.tilting_quiver_json(tq)) + "\n")
        else:
            text = tr.call("tilting.export_dot_s", tilting.tilting_quiver_dot, tq)
        tr.metrics["tilting.output_bytes"] += len(text.encode())
        return text, 0, None, None
    if kind == "verify":
        results = []
        for suite in verify.SUITE_ORDER:
            for fn in verify.SUITES[suite]:
                results.extend(tr.call(SUITE_METRIC[suite], fn, p["max_rank"]))
        rc = 1 if any(r.status != "pass" for r in results) else 0
        return verify_text(results, "all", p["max_rank"]), rc, None, None
    if kind == "scan":
        lines, lat = [], []
        for bits, q in inputs["quivers"]:
            spent, s0 = speed.spent, time.perf_counter()
            if tr is not None:
                _, tq = traced_quiver(tr, rep, tilting, q)
            else:
                tq = tilting.tilting_quiver(q)
            lat.append(time.perf_counter() - s0 - (speed.spent - spent))
            lines.append((bits, (len(tq.nodes), len(tq.arrows))))
        return scan_text(lines), 0, lines, lat
    reports = []  # hasse
    for (kind_, rank, bits), q in inputs["quivers"]:
        if tr is not None:
            table, tq = traced_quiver(tr, rep, tilting, q)
            report = tr.call("tilting.hasse_check_s", tilting.hasse_check, table, tq)
            tr.metrics["tilting.hasse_pairs"] += len(tq.nodes) * (len(tq.nodes) - 1)
        else:
            table, tq = tilting.ext_table(q), tilting.tilting_quiver(q)
            report = tilting.hasse_check(table, tq)
        reports.append((kind_, rank, f"{kind_}{rank}[{bits}]", tq, report))
    text = "".join(
        f"{label} vertices={len(tq.nodes)} arrows={len(tq.arrows)} ok={r.ok} "
        f"missing={len(r.missing)} extra={len(r.extra)}\n"
        for _, _, label, tq, r in reports
    )
    return text, 0, reports, None


def gate_output(gate, p, tilting, text, rc, detail):
    """Every check an op's output must pass; failures land in gate.errors."""
    gate.check(rc == 0, f"exit code {rc}")
    kind = p["kind"]
    if kind == "graph":
        closed = tilting.closed_form_counts(p["type"], p["rank"])
        gate.counts(f"{p['type']}{p['rank']}", graph_counts(text, p["format"]), closed)
    elif kind == "scan":
        closed = tilting.closed_form_counts(p["type"], p["rank"])
        for bits, got in detail:
            gate.counts(f"{p['type']}{p['rank']}[{bits}]", got, closed)
    elif kind == "verify":
        payload = json.loads(text)
        n = len(payload["checks"])
        gate.check(payload["failures"] == 0, f"verify reports {payload['failures']} failures")
        gate.check(n > 0, "verify ran no checks")
        want = gate.expect.get("checks")
        gate.check(not want or n == want, f"verify ran {n} checks, expected {want}")
    else:
        for kind_, rank, label, tq, r in detail:
            gate.check(r.ok, f"{label}: hasse_check failed, missing {r.missing[:3]} extra {r.extra[:3]}")
            gate.counts(label, (len(tq.nodes), len(tq.arrows)), tilting.closed_form_counts(kind_, rank))
    return gate.digest(text)


def run_op(spec, mods, inputs, p, speed):
    """The timed section with its times corrected, then the gate; returns record fields."""
    _, rep, tilting, _ = mods
    tr = Trace(rep, tilting, speed) if spec["mode"] == "trace" else None
    speed.sample()
    first, spent = len(speed.samples), speed.spent
    t0, c0 = time.perf_counter(), time.process_time()
    text, rc, detail, lat = timed_section(p, inputs, mods, tr, speed)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    probes = speed.spent - spent
    speed.sample()
    speed.stop()
    factor = speed.factor(first - 1)

    gate = Gate(spec.get("expect", {}))
    out = {
        "wall_raw_s": wall,
        "cpu_raw_s": cpu,
        "wall_s": (wall - probes) * factor,
        "cpu_s": (cpu - probes) * factor,
        "speed_factor": factor,
        "probe_samples": len(speed.samples) - first + 1,
        "sha256": gate_output(gate, p, tilting, text, rc, detail),
        "errors": gate.errors,
    }
    if lat is not None:
        out["orient_ms"] = [x * 1000 * factor for x in lat]
    if tr is not None:
        out["layers"] = tr.finish(factor)
    return out


def main():
    spec = json.loads(sys.argv[1])
    speed = HostSpeed()
    probe()  # the first call runs slower while the interpreter specialises it
    speed.sample()
    speed.start()
    tiltquiver, *mods = import_tiltquiver()
    p = params(spec["workload"], spec.get("smoke", False))
    inputs = make_inputs(spec["workload"], spec["seed"], spec.get("smoke", False))
    if p["kind"] == "graph":
        bits = inputs["argv"][inputs["argv"].index("--orientation") + 1]
        inputs["quiver"] = build_quiver(tiltquiver, p["type"], p["rank"], bits)
    elif p["kind"] == "scan":
        inputs["quivers"] = [(b, build_quiver(tiltquiver, p["type"], p["rank"], b)) for b in inputs["order"]]
    elif p["kind"] == "hasse":
        inputs["quivers"] = [((k, r, b), build_quiver(tiltquiver, k, r, b)) for k, r, b in inputs["instances"]]
    speed.sample()
    setup = time.monotonic() - spec["t_spawn"]
    record = {"setup_raw_s": setup, "setup_s": (setup - speed.spent) * speed.factor()}

    if spec["mode"] == "setup":
        speed.stop()
    else:
        record.update(run_op(spec, mods, inputs, p, speed))
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(record))


if __name__ == "__main__":
    main()
