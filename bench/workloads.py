"""Workload definitions and seeded input generation, shared by run.py and child.py.

Nothing here imports tiltquiver: the parent driver stays light, and the child
does the generation itself so that set-up time covers it.
"""

from __future__ import annotations

import random
from itertools import product

DEFAULT_SEED = 1

# name -> parameters.  "smoke" replaces the ranks for the quick self-test mode.
# A graph or hasse "orientation" is a base; the seed picks from its orbit.
WORKLOADS = {
    "graph-a11-json": {
        "kind": "graph",
        "type": "A",
        "rank": 11,
        "orientation": "1101001011",
        "format": "json",
        "smoke": {"rank": 5, "orientation": "1101"},
        "why": "exchange quiver, clique search and JSON export at A11; "
        "rep and ext_table are under 5%, so a change to them should not move it",
    },
    "graph-d9alt-dot": {
        "kind": "graph",
        "type": "D",
        "rank": 9,
        "orientation": "10110110",
        "format": "dot",
        "smoke": {"rank": 5, "orientation": "1001"},
        "why": "default DOT output at the D rank guard through reflection functors; "
        "the export rebuilds tq.delta per node",
    },
    "scan-d7": {
        "kind": "scan",
        "type": "D",
        "rank": 7,
        "smoke": {"rank": 4},
        "why": "reflect-scan body over all 64 D7 orientations; every cache misses, "
        "so rep and ext_table dominate and retained memory grows",
    },
    "verify-all": {
        "kind": "verify",
        "max_rank": 9,
        "smoke": {"max_rank": 4},
        "why": "verify --suite all --max-rank 9, the glue/classify/verify path; "
        "the cache-read side with thousands of ext_table hits",
    },
    "hasse-a8-d7": {
        "kind": "hasse",
        "instances": [["A", 8, "1101001"], ["D", 7, "101101"]],
        "smoke": {"instances": [["A", 4, "101"], ["D", 4, "101"]]},
        "why": "the order kernel (leq and hasse_check) at A8 and D7, "
        "at most 2% of every other workload",
    },
}

# sha256 of each op's output at DEFAULT_SEED, full size and smoke size.
# scan-d7 and verify-all produce the same output at every seed.
PINNED_SHA256 = {
    "graph-a11-json": {
        "full": "9d109ec50f4c6511fe00a59947d91b2d898bb4a65d66b49330eb66a354567117",
        "smoke": "b95eae62f5740f8adcc06b35a33e94253715b7bb306f880e3bfa7cee2e4cdb1d",
    },
    "graph-d9alt-dot": {
        "full": "82e802e02b539ef9a147d46376173f9b7842ffb17d73fdb10b2b65a6ba44cd21",
        "smoke": "8a39d776ae2b8206be69a10c973cdde8f5108506bf103900dcb29112c0931330",
    },
    "scan-d7": {
        "full": "9fc5486695ef9a3d20a89202552193751ed823733b6aef7642e5186af4ce2332",
        "smoke": "94e6bf5a9a62f97a92ab576bcb64c0e3c49d3371a49de1008044e0e625281540",
    },
    "verify-all": {
        "full": "6b3e2ba8fc97045851597d73f461437761a6e3b05cf321bf5b09efbe7aaea203",
        "smoke": "66fce05d3928c55a846799665c6c8e00cb2ac50057b64866bf69fcff3cff540f",
    },
    "hasse-a8-d7": {
        "full": "42e69de3ead8a63c967b6e8fc3437187d71c5a0ba663a53d846b5b82b8d13f03",
        "smoke": "ad0569c886ccf941aff3dfee473558fbf33afafd37009221ba52ff4028113c50",
    },
}
SEED_FREE_OUTPUT = {"scan-d7", "verify-all"}

# verify-all must report exactly this many checks, all passing.
VERIFY_CHECKS = {"full": 322, "smoke": 248}


def params(name, smoke=False):
    """Workload parameters, with the smoke ranks applied when asked."""
    spec = {k: v for k, v in WORKLOADS[name].items() if k not in ("smoke", "why")}
    if smoke:
        spec.update(WORKLOADS[name]["smoke"])
    return spec


def _flip(bits):
    return "".join("1" if c == "0" else "0" for c in bits)


def orientation_orbit(kind, bits):
    """Orientations isomorphic or opposite to `bits`, in a fixed order.

    The isomorphisms are the diagram automorphisms (path reversal for A, the
    fork-tip swap for D); the opposite quiver reverses every arrow.  Their
    tilting posets are isomorphic or dual, so every member costs the same
    work, while the program still receives a different quiver.
    """
    auto = (lambda b: _flip(b[::-1])) if kind == "A" else (lambda b: b[:-2] + b[-1] + b[-2])
    orbit = []
    for b in (bits, auto(bits), _flip(bits), auto(_flip(bits))):
        if b not in orbit:
            orbit.append(b)
    return orbit


def make_inputs(name, seed, smoke=False):
    """Inputs for one workload, a pure function of (name, seed, smoke).

    The string seed is hashed by `random` with sha512, so the result does not
    depend on PYTHONHASHSEED.
    """
    p = params(name, smoke)
    rng = random.Random(f"{name}:{seed}")
    if p["kind"] == "graph":
        bits = rng.choice(orientation_orbit(p["type"], p["orientation"]))
        argv = ["graph", "--type", p["type"], "--rank", str(p["rank"]), "--orientation", bits]
        if p["format"] != "dot":  # dot is the CLI default
            argv += ["--format", p["format"]]
        return {"argv": argv}
    if p["kind"] == "scan":
        order = ["".join(b) for b in product("10", repeat=p["rank"] - 1)]
        rng.shuffle(order)
        return {"order": order}
    if p["kind"] == "verify":
        return {"argv": ["verify", "--suite", "all", "--max-rank", str(p["max_rank"])]}
    if p["kind"] == "hasse":
        return {
            "instances": [
                [kind, rank, rng.choice(orientation_orbit(kind, base))]
                for kind, rank, base in p["instances"]
            ]
        }
    raise ValueError(f"unknown workload kind {p['kind']!r}")
