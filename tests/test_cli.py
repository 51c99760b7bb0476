import hashlib
import io
import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path
from types import FunctionType

import pytest

import tiltquiver
from tiltquiver.cli import EXIT_CLOSED_STDOUT, main
from tiltquiver.models import FAMILIES, builder_param
from tiltquiver.tilting import closed_form_counts

# sha256 of `verify --suite all --max-rank 4` stdout: 248 passing checks.
VERIFY_ALL_RANK_4_SHA256 = "66fce05d3928c55a846799665c6c8e00cb2ac50057b64866bf69fcff3cff540f"
# sha256 of `graph` stdout at two non-reference orientations, pinned before
# the exchange quiver was rebuilt on summand masks.
GRAPH_SHA256 = {
    ("--type", "A", "--rank", "7", "--orientation", "101101", "--format", "json"):
        "91c159b4a4e0015e7b12d6de86e81d98c3714f5befb565e2770d97f850320586",
    ("--type", "D", "--rank", "6", "--orientation", "10110"):
        "fca6d779ea8e8007b988e6b83bf546341a6506f4eec0995b9572596c92eae6e5",
}

# sha256 of `reflect-scan --type D --rank 5` stdout, pinned while the scan
# still kept every orientation's quiver in the tilting_quiver cache.
REFLECT_SCAN_D5_SHA256 = "3f2623cdfa4459d381b1afd02c8ccaf875bf051ebb49b3722c60e278367a8203"
# The same at D7 and A9, pinned in CI (D7 also in bench/workloads.py).
REFLECT_SCAN_D7_SHA256 = "9fc5486695ef9a3d20a89202552193751ed823733b6aef7642e5186af4ce2332"
REFLECT_SCAN_A9_SHA256 = "eeafdb728f250557f678b6a0585ec9542079754cc70f09dc98b9851b89df2a0c"

# sha256 of stdout taken before the Ext table moved onto the Euler form; at
# the reference orientation the labels are model tags.  The CSV digests were
# pinned again when the labels field was quoted.
EULER_PATH_SHA256 = {
    ("graph", "--type", "D", "--rank", "6"):
        "328dd3744685ecf1317e64ffd463842116436160838c657612996984888e88fb",
    ("graph", "--type", "D", "--rank", "6", "--orientation", "10110"):
        "fca6d779ea8e8007b988e6b83bf546341a6506f4eec0995b9572596c92eae6e5",
    ("enumerate", "--type", "D", "--rank", "6", "--format", "csv"):
        "33ac9b4e74360ff17b8d434d4dc82dd393b7956fd33ddcb406c00beaa4314dc1",
    ("enumerate", "--type", "A", "--rank", "6", "--format", "csv"):
        "9c372d378cc3a5bdbf87c43e7ebff2dca943694312a7629df1e344e8999dd4f5",
}


# sha256 of stdout pinned before `graph` and `enumerate` streamed their
# output; each spans several chunks of the DOT export or JSON slices.  The
# CSV digest was pinned again when the labels field was quoted.
STREAMED_SHA256 = {
    ("graph", "--type", "A", "--rank", "9", "--format", "json"):
        "cb598ee9617e3289c285c98e73207e6aa020cb364ecca19fcc67bf0bca95dc5f",
    ("graph", "--type", "D", "--rank", "8", "--orientation", "0110101"):
        "bffdc38c5a06874fc7c94ae13809e2ae83fea2e6f16672e17032bd35febd01ab",
    ("enumerate", "--type", "A", "--rank", "9", "--format", "json"):
        "46c1b461801eae5d18d0f556899b73ded040bfe9e3742f3121aaef525a177505",
    ("enumerate", "--type", "D", "--rank", "8", "--orientation", "0110101", "--format", "csv"):
        "f7fa95017fa908086dfe210517f980865b4fa489f76c977f4fb8e1a5173cc6d5",
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_counts_d4(capsys):
    code, out, err = run_cli(capsys, "counts", "--type", "D", "--rank", "4")
    assert code == 0
    assert out == "vertices=20 arrows=32\n"
    assert err == ""


def test_counts_a3_csv_both_sources(capsys):
    code, out, _ = run_cli(
        capsys, "counts", "--type", "A", "--rank", "3", "--format", "csv", "--source", "both"
    )
    assert code == 0
    assert out.splitlines() == [
        "type,rank,vertices,arrows,source",
        "A,3,5,5,closed-form",
        "A,3,5,5,enumeration",
    ]


def test_counts_d3_alias_notes_on_stderr(capsys):
    code, out, err = run_cli(capsys, "counts", "--type", "D", "--rank", "3")
    assert code == 0
    assert out == "vertices=5 arrows=5\n"
    assert "type A" in err


def test_counts_json(capsys):
    code, out, _ = run_cli(capsys, "counts", "--type", "A", "--rank", "4", "--format", "json")
    assert code == 0
    assert json.loads(out) == [
        {"type": "A", "rank": 4, "vertices": 14, "arrows": 21, "source": "closed-form"}
    ]


@pytest.mark.parametrize("kind", ["A", "D"])
def test_counts_print_every_digit(capsys, kind):
    """At rank 8000 each count has over 4800 digits, past Python's 4300-digit str limit."""
    want = closed_form_counts(kind, 8000)
    # Decimal reads and writes ints of any length, so the test does not rely
    # on the limit the command lifts
    assert all(len(str(Decimal(n))) > 4800 for n in want)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    base = ("counts", "--type", kind, "--rank", "8000")
    outputs = {}
    for fmt in ("text", "csv", "json"):
        code, outputs[fmt], err = run_cli(capsys, *base, "--format", fmt)
        assert (code, err) == (0, ""), fmt
    text = dict(field.split("=") for field in outputs["text"].split())
    assert (int(Decimal(text["vertices"])), int(Decimal(text["arrows"]))) == want
    header, row = (line.split(",") for line in outputs["csv"].splitlines())
    row = dict(zip(header, row))
    assert (int(Decimal(row["vertices"])), int(Decimal(row["arrows"]))) == want
    (doc,) = json.loads(outputs["json"], parse_int=Decimal)
    assert (int(doc["vertices"]), int(doc["arrows"])) == want
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("kind", ["A", "D"])
def test_counts_past_the_rank_cap_exit_2_at_once(capsys, monkeypatch, kind):
    from tiltquiver import models
    from tiltquiver.tilting import COUNTS_MAX_RANK

    def forbidden(rank):
        raise AssertionError("closed form evaluated past the cap")

    monkeypatch.setitem(models.FAMILIES, kind, models.FAMILIES[kind]._replace(counts=forbidden))
    rank = str(COUNTS_MAX_RANK + 1)
    for source in ("closed-form", "both"):
        with pytest.raises(SystemExit) as exc:
            main(["counts", "--type", kind, "--rank", rank, "--source", source])
        assert exc.value.code == 2, source
        assert f"capped at rank {COUNTS_MAX_RANK}" in capsys.readouterr().err
    with pytest.raises(ValueError, match="capped"):
        closed_form_counts(kind, COUNTS_MAX_RANK + 1)


def test_graph_dot_a3(capsys):
    code, out, _ = run_cli(capsys, "graph", "--type", "A", "--rank", "3", "--format", "dot")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "digraph tilting {"
    assert sum(1 for ln in lines if "label=" in ln) == 5
    assert sum(1 for ln in lines if "->" in ln) == 5


def test_graph_json_field_order(capsys):
    code, out, _ = run_cli(capsys, "graph", "--type", "D", "--rank", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert list(data.keys()) == ["quiver", "nodes", "arrows", "delta"]
    assert len(data["nodes"]) == 20
    assert len(data["arrows"]) == 32


@pytest.mark.parametrize("args", sorted(GRAPH_SHA256))
def test_graph_output_bytes_are_pinned(capsys, args):
    code, out, _ = run_cli(capsys, "graph", *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GRAPH_SHA256[args]


@pytest.mark.parametrize("argv", sorted(STREAMED_SHA256))
def test_streamed_output_bytes_are_pinned(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STREAMED_SHA256[argv]


def test_streamed_output_spans_several_chunks():
    from tiltquiver.tilting import SLICE, closed_form_counts

    assert 2 * SLICE < closed_form_counts("D", 8)[0]
    assert 2 * SLICE < closed_form_counts("A", 9)[0]


@pytest.mark.parametrize(
    "argv",
    [
        ("graph", "--type", "D", "--rank", "5"),
        ("graph", "--type", "A", "--rank", "5", "--format", "json"),
        ("enumerate", "--type", "A", "--rank", "5"),
        ("enumerate", "--type", "D", "--rank", "5", "--format", "csv"),
        ("counts", "--type", "D", "--rank", "5", "--source", "enumeration"),
        ("graph", "--type", "A", "--rank", "4", "--orientation", "101", "--format", "dot"),
        ("enumerate", "--type", "D", "--rank", "5", "--orientation", "0110", "--format", "json"),
        ("enumerate", "--type", "A", "--rank", "5", "--format", "csv"),
        ("reflect-scan", "--type", "D", "--rank", "5"),
    ],
)
def test_commands_keep_no_quiver(capsys, argv):
    """No command reads or fills a per-orientation cache: each walks on a table of its own."""
    from tiltquiver.quiver import positive_roots
    from tiltquiver.tilting import enumerate_tilting, ext_table, tilting_quiver

    caches = (tilting_quiver, enumerate_tilting, ext_table, positive_roots)
    before = [f.cache_info() for f in caches]
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert [f.cache_info() for f in caches] == before


def test_graph_export_stays_near_the_walk_peak(d9_walk_memory):
    """At D9 `graph` may add at most 10% (DOT) or 20% (JSON) to the walk's peak."""
    peaks, walk_peak = d9_walk_memory["export_peak"], d9_walk_memory["walk_peak"]
    assert peaks["dot"] <= 1.1 * walk_peak, (peaks, walk_peak)
    assert peaks["json"] <= 1.2 * walk_peak, (peaks, walk_peak)


def test_graph_and_enumerate_build_no_representation(capsys, monkeypatch):
    from tiltquiver import linalg, rep

    def forbidden(*args):
        raise AssertionError("representation or linear algebra on the hot path")

    monkeypatch.setattr(rep, "indecomposables", forbidden)
    monkeypatch.setattr(rep, "hom_table", forbidden)
    defined = [
        name
        for name, value in vars(linalg).items()
        if isinstance(value, FunctionType) and value.__module__ == linalg.__name__
    ]
    assert defined
    for name in defined:
        monkeypatch.setattr(linalg, name, forbidden)
    vertices, arrows = closed_form_counts("D", 5)
    digests = {
        **EULER_PATH_SHA256,
        ("counts", "--type", "D", "--rank", "5", "--source", "enumeration"):
            hashlib.sha256(f"vertices={vertices} arrows={arrows}\n".encode()).hexdigest(),
        ("reflect-scan", "--type", "D", "--rank", "5"): REFLECT_SCAN_D5_SHA256,
    }
    for argv, digest in digests.items():
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_product_imports_nothing_from_rep_or_linalg():
    """The product modules import neither `rep` nor `linalg`, nor any name
    from them: those are the oracle that verify and the tests check the
    product against.  The positive roots and their simple reflections are
    read from `quiver`."""
    import ast
    import importlib

    oracle = ("rep", "linalg")
    used = {}
    for name in ("quiver", "models", "tilting", "glue", "classify", "cli"):
        module = importlib.import_module(f"tiltquiver.{name}")
        tree = ast.parse(Path(module.__file__).read_text())
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = (node.module or "").removeprefix("tiltquiver").lstrip(".")
                for alias in node.names:
                    if source in oracle:
                        names.add(f"{source}.{alias.name}")
                    elif alias.name in oracle:
                        names.add(alias.name)
            elif isinstance(node, ast.Import):
                names.update(a.name for a in node.names if a.name.endswith((".rep", ".linalg")))
        used[name] = names
    assert used == {name: set() for name in used}


def modules_loaded_by(statement, names):
    """Which of `names` are in sys.modules after `statement` in a fresh `python -S`.

    -S skips the site hooks, which may import `typing` before the package does.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(tiltquiver.__file__).parents[1]))
    code = f"import sys\n{statement}\nprint(*[n for n in {names!r} if n in sys.modules])"
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_the_package_imports_neither_dataclasses_nor_typing():
    """Every command starts by importing the package, so it imports none of
    `dataclasses` (with `inspect`, `ast`, `dis` and `tokenize` behind it) or
    `typing`; the records are namedtuples or plain classes with `__slots__`."""
    statement = "import tiltquiver, tiltquiver.cli, tiltquiver.rep, tiltquiver.tilting, tiltquiver.verify"
    heavy = ("dataclasses", "inspect", "typing")
    assert modules_loaded_by(statement, heavy) == []
    assert modules_loaded_by(statement + "; import dataclasses, typing", heavy) == list(heavy)


def test_the_cli_loads_the_checks_only_for_verify():
    checks = ("tiltquiver.verify", "tiltquiver.glue", "tiltquiver.classify")
    assert modules_loaded_by("import tiltquiver.cli", checks) == []
    assert modules_loaded_by("import tiltquiver.verify", checks) == list(checks)


def test_the_commands_load_neither_rep_nor_linalg():
    """A lazy import escapes the AST test above, so run the product commands
    in a fresh process and read its sys.modules afterwards."""
    statement = """
import contextlib, io
from tiltquiver import cli
commands = (
    "graph --type A --rank 5",
    "enumerate --type D --rank 5 --format csv",
    "counts --type A --rank 5 --source both",
    "reflect-scan --type D --rank 5",
)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv.split()) for argv in commands]
assert codes == [0] * len(commands), codes
"""
    names = ("tiltquiver.tilting", "tiltquiver.rep", "tiltquiver.linalg")
    assert modules_loaded_by(statement, names) == ["tiltquiver.tilting"]


def test_enumerate_matches_counts(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--type", "A", "--rank", "4")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 14 == len(data["modules"])
    assert all(len(m["ids"]) == 4 for m in data["modules"])


def test_enumerate_with_orientation(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--type", "A", "--rank", "3", "--orientation", "10"
    )
    assert code == 0
    assert json.loads(out)["count"] == 5


def test_enumerate_csv(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--type", "A", "--rank", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "index,ids,labels"
    assert len(lines) == 3


@pytest.mark.parametrize(
    "kind, rank, orientation",
    [("A", 3, "reference"), ("D", 5, "0110")],
    ids=["A3-reference", "D5-0110"],
)
def test_enumerate_csv_parses_into_three_fields(capsys, kind, rank, orientation):
    """The labels hold commas (L(0,1), (0,1,1)), so their field is quoted:
    `csv.reader` reads the header's three fields on every row."""
    import csv

    from tiltquiver.tilting import transient_quiver

    code, out, _ = run_cli(
        capsys, "enumerate", "--type", kind, "--rank", str(rank),
        "--orientation", orientation, "--format", "csv",
    )
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert header == ["index", "ids", "labels"]
    bits = None if orientation == "reference" else [c == "1" for c in orientation]
    labels = transient_quiver(FAMILIES[kind].reference(builder_param(kind, rank), bits)).table.labels()
    assert len(rows) == closed_form_counts(kind, rank)[0]
    for i, row in enumerate(rows):
        assert len(row) == 3, row
        index, ids, names = row
        assert int(index) == i
        assert names.split("|") == [labels[int(s)] for s in ids.split("|")], row


def test_reflect_scan_single_pair(capsys):
    code, out, _ = run_cli(capsys, "reflect-scan", "--type", "A", "--rank", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    assert lines[-1] == "distinct=1"
    assert all("vertices=14 arrows=21" in ln for ln in lines[:-1])


def test_reflect_scan_d4(capsys):
    code, out, _ = run_cli(
        capsys, "reflect-scan", "--type", "D", "--rank", "4", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "orientation,vertices,arrows"
    assert len(lines) == 9
    assert all(ln.endswith("20,32") for ln in lines[1:])


def test_reflect_scan_caches_no_quiver(capsys):
    from tiltquiver.tilting import enumerate_tilting, tilting_quiver

    before = [f.cache_info() for f in (tilting_quiver, enumerate_tilting)]
    code, out, _ = run_cli(capsys, "reflect-scan", "--type", "D", "--rank", "5")
    assert code == 0
    assert [f.cache_info() for f in (tilting_quiver, enumerate_tilting)] == before
    assert hashlib.sha256(out.encode()).hexdigest() == REFLECT_SCAN_D5_SHA256


@pytest.mark.parametrize(
    "kind, rank, counts, digest",
    [
        ("D", 5, 6, REFLECT_SCAN_D5_SHA256),  # of 16 orientations
        ("D", 7, 24, REFLECT_SCAN_D7_SHA256),  # of 64
        ("A", 9, 72, REFLECT_SCAN_A9_SHA256),  # of 256
    ],
    ids=["D5", "D7", "A9"],
)
def test_reflect_scan_walks_each_orbit_once(capsys, monkeypatch, kind, rank, counts, digest):
    """One count per orbit of the opposite and the diagram automorphism.

    The counts are the closed forms at every orientation, so each count here
    returns the closed-form pair, and the output is still the pinned one.
    """
    from tiltquiver import tilting

    want = closed_form_counts(kind, rank)
    counted = []

    def stand_in(table):
        counted.append(table.quiver)
        return want

    monkeypatch.setattr(tilting, "_count", stand_in)
    code, out, _ = run_cli(capsys, "reflect-scan", "--type", kind, "--rank", str(rank))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert len(counted) == counts


def test_reflect_scan_keeps_no_table(capsys):
    from tiltquiver.quiver import positive_roots
    from tiltquiver.tilting import ext_table

    # Both caches start empty, so a cache the scan read or filled would show.
    before = [f.cache_info() for f in (ext_table, positive_roots)]
    code, out, _ = run_cli(capsys, "reflect-scan", "--type", "A", "--rank", "6")
    assert code == 0
    assert out.endswith("distinct=1\n") and out.count("vertices=132 arrows=330") == 32
    assert [f.cache_info() for f in (ext_table, positive_roots)] == before


def test_verify_small_passes(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "counts", "--max-rank", "3")
    assert code == 0
    data = json.loads(out)
    assert data["failures"] == 0
    assert all(c["status"] == "pass" for c in data["checks"])
    assert err == ""


def test_verify_reports_are_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify", "--suite", "all", "--max-rank", "4")
    _, second, _ = run_cli(capsys, "verify", "--suite", "all", "--max-rank", "4")
    assert first == second
    assert len(json.loads(first)["checks"]) == 248
    assert hashlib.sha256(first.encode()).hexdigest() == VERIFY_ALL_RANK_4_SHA256


# sha256(json.dumps([(check, label), ...]))[:12] over every check of `verify
# --suite all` at each --max-rank, and the number of pairs, pinned while each
# check still picked its instances through its own helper.
VERIFY_LABELS = {
    0: ("4f53cda18c2b", 0),
    1: ("a9bafec5ae13", 13),
    2: ("2b9d62981c0d", 27),
    3: ("c2dca130af65", 56),
    4: ("8e6aa09e900f", 248),
    5: ("e043662d7489", 295),
    6: ("3869109fbe07", 317),
    7: ("e131702f96d4", 319),
    8: ("e59cd734bd1d", 321),
    **{rank: ("b96b17942fbc", 322) for rank in range(9, 13)},
}


@pytest.mark.parametrize("max_rank", sorted(VERIFY_LABELS))
def test_verify_instances_at_each_max_rank(max_rank):
    from tiltquiver import verify

    pairs = [
        (check.name, label)
        for suite in verify.SUITE_ORDER
        for check in verify.SUITES[suite]
        for label, _ in verify._instances(check.rows, max_rank)
    ]
    digest = hashlib.sha256(json.dumps(pairs).encode()).hexdigest()[:12]
    assert (digest, len(pairs)) == VERIFY_LABELS[max_rank]


def test_verify_wrong_closed_form_fails_loudly(capsys, monkeypatch):
    from tiltquiver import verify

    real = verify.closed_form_counts
    monkeypatch.setattr(
        verify,
        "closed_form_counts",
        lambda kind, rank: (0, 0) if kind == "A" else real(kind, rank),
    )
    code, out, err = run_cli(capsys, "verify", "--suite", "counts", "--max-rank", "3")
    assert code == 1
    checks = json.loads(out)["checks"]
    assert checks[0] == {
        "check": "closed-form-counts-A",
        "instance": "A1",
        "status": "fail",
        "counterexample": "got (1, 0), want (0, 0)",
    }
    wrong = [c for c in checks if c["check"] == "closed-form-counts-A"]
    assert len(wrong) == 3
    assert all(c["status"] == "fail" and c["counterexample"] for c in wrong)
    assert json.loads(err)["failures"]


def test_oracle_failures_name_the_counterexample(monkeypatch):
    from tiltquiver import rep, verify

    real_hom_dim = rep.hom_dim

    def swollen_endomorphisms(m, n):
        return real_hom_dim(m, n) + (m is n)

    monkeypatch.setattr(rep, "hom_dim", swollen_endomorphisms)
    results = verify.CHECKS["rigidity"](3)
    assert [r.instance for r in results] == ["A1", "A2", "A3", "Q2"]
    assert all(r.status == "fail" and r.detail == "id 0: hom 2, ext 1" for r in results)

    def doubled_simple(q):
        return frozenset({(2,) + (0,) * (len(q.vertices) - 1)})

    monkeypatch.setattr(verify, "positive_roots", doubled_simple)
    results = verify.CHECKS["euler-root-norm"](2)
    assert [(r.status, r.detail) for r in results] == [
        ("fail", "root (2,): euler form 4"),
        ("fail", "root (2, 0): euler form 4"),
    ]


def test_verify_failure_reports_on_stderr(capsys, monkeypatch):
    from tiltquiver.verify import CheckResult

    monkeypatch.setattr(
        "tiltquiver.verify.run_suite",
        lambda suite, max_rank: [
            CheckResult("demo-check", "X1", "pass"),
            CheckResult("demo-check", "X2", "fail", "got 1, want 2"),
        ],
    )
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--max-rank", "3")
    assert code == 1
    report = json.loads(out)
    assert report["failures"] == 1
    assert report["checks"][1]["counterexample"] == "got 1, want 2"
    failing = json.loads(err)
    assert failing["failures"][0]["instance"] == "X2"


def test_usage_errors_exit_2(capsys):
    for argv in (
        ["counts", "--type", "D", "--rank", "2"],
        ["enumerate", "--type", "A", "--rank", "3", "--orientation", "1"],
        ["enumerate", "--type", "A", "--rank", "2", "--orientation", "10"],
        ["verify", "--suite", "bogus"],
        ["frobnicate"],
        # a selection that runs no check must not pass vacuously
        ["verify", "--max-rank", "0"],
        ["verify", "--max-rank", "-3"],
        ["verify", "--suite", "glue", "--max-rank", "3"],
        ["reflect-scan", "--type", "D", "--rank", "2"],
        ["reflect-scan", "--type", "A", "--rank", "0"],
        ["reflect-scan", "--type", "A", "--rank", "5", "--orientation", "0101"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_orientation_error_says_how_many_bits(capsys):
    for rank, needed in ((2, "1 bit"), (3, "2 bits")):
        with pytest.raises(SystemExit) as exc:
            main(["graph", "--type", "A", "--rank", str(rank), "--orientation", "111"])
        assert exc.value.code == 2
        assert f"orientation must be {needed} of 0/1, got '111'" in capsys.readouterr().err


def closed_stdout_run(entry):
    """Run `entry graph --type A --rank 9 | head -1`; return the exit status and stderr.

    The A9 DOT export is far larger than a pipe buffer, so closing the pipe
    after the first line breaks a write that is still to come.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(tiltquiver.__file__).parents[1]))
    child = subprocess.Popen(
        [sys.executable, *entry, "graph", "--type", "A", "--rank", "9"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert child.stdout.readline() == b"digraph tilting {\n"
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    return child.wait(timeout=60), err


@pytest.mark.parametrize(
    "entry",
    [
        ["-m", "tiltquiver.cli"],
        # what the `tiltquiver` console script runs
        ["-c", "import sys; from tiltquiver.cli import run; sys.exit(run())"],
    ],
    ids=["cli-module", "console-script"],
)
def test_closed_stdout_exits_quietly_from_every_entry_point(entry):
    assert closed_stdout_run(entry) == (EXIT_CLOSED_STDOUT, b"")


def test_closed_stdout_exits_quietly():
    # `python -m tiltquiver graph --type A --rank 9 | head -1`
    assert closed_stdout_run(["-m", "tiltquiver"]) == (EXIT_CLOSED_STDOUT, b"")
    assert EXIT_CLOSED_STDOUT not in (0, 1, 2)


def test_rank_guard_reported_as_usage_error(capsys):
    from tiltquiver.tilting import ext_table

    misses = ext_table.cache_info().misses
    for argv in (
        ["enumerate", "--type", "A", "--rank", "13"],
        ["counts", "--type", "A", "--rank", "13", "--source", "enumeration"],
        ["counts", "--type", "D", "--rank", "10", "--source", "both"],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        # one form for every command: no argparse usage line
        assert captured.err.startswith("error: rank guard exceeded"), argv
        assert "usage:" not in captured.err, argv
    # the guard runs before the Ext table is built
    assert ext_table.cache_info().misses == misses


def test_rank_guard_runs_before_any_quiver_is_built(capsys):
    """A rank far past the guard is refused before its quiver, or the first
    of its orientations, is built: every command that enumerates exits 2 at
    rank 200,000 having traced less than 1 MB."""
    import tracemalloc

    for argv in (
        ["enumerate", "--type", "A"],
        ["graph", "--type", "D"],
        ["counts", "--type", "A", "--source", "enumeration"],
        ["reflect-scan", "--type", "A"],
    ):
        tracemalloc.start()
        try:
            code = main([*argv, "--rank", "200000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.err.startswith("error: rank guard exceeded: type"), argv
        assert "usage:" not in captured.err, argv
        assert peak < 1 << 20, (argv, peak)


def test_graph_labels_fall_back_to_dim_vectors_off_reference(capsys):
    code, out, _ = (
        main(["graph", "--type", "A", "--rank", "3", "--orientation", "01", "--format", "dot"]),
        *capsys.readouterr(),
    )
    assert code == 0
    assert 'label="(' in out  # dimension-vector labels, no model names
    assert "L(" not in out
