import os
import sys
import tracemalloc

import pytest


@pytest.fixture(autouse=True)
def cold_caches():
    """Every test starts with the package's caches empty, whatever ran before it.

    `tilting_quiver.cache_clear` also forgets every twin the cache held.
    """
    from tiltquiver import glue, quiver, rep, tilting, verify

    for cached in (
        tilting.ext_table,
        tilting.tilting_quiver,
        tilting.enumerate_tilting,
        rep.indecomposables,
        quiver.positive_roots,
        glue._leaf_maps,
        verify._classes,
    ):
        cached.cache_clear()


@pytest.fixture(scope="session")
def d9_walk_memory():
    """tracemalloc readings off one traced walk at reference D9, shared by the memory tests.

    The Ext table is built first and the peak reset, then the walk runs, then
    `hasse_check` and the two `graph` exports run on the walk's quiver, each
    after a peak reset. Keys (bytes unless said otherwise):

    * ``quiver_held``: what the finished quiver holds, the table excluded;
      ``n_arrows`` is its number of arrows.
    * ``walk_peak``: the walk's peak with the Ext table's build included, as a
      command that builds its table inside the walk sees it.
    * ``own_walk_peak``: the walk's peak over the table built before it.
    * ``hasse_ok`` and ``hasse_added``: the report's ``ok`` and what
      `hasse_check` adds on top of what the walk holds.
    * ``export_peak``: the peak of `graph` per format, ``"dot"`` and ``"json"``.
      `graph` walks on an Ext table of its own, built for the command alone,
      so this peak includes that table's build as well as the export.
    """
    from tiltquiver import models, quiver, tilting
    from tiltquiver.cli import main

    for cached in (tilting.ext_table, tilting.tilting_quiver, quiver.positive_roots):
        cached.cache_clear()
    q = models.FAMILIES["D"].reference(models.builder_param("D", 9))
    export_peak = {}
    tracemalloc.start()
    try:
        table = tilting.ext_table(q)
        table_held, table_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        tq = tilting.tilting_quiver.__wrapped__(q)
        held, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        report = tilting.hasse_check(table, tq)
        hasse_added = tracemalloc.get_traced_memory()[1] - held
        # Each command builds its own roots and Ext table, then gets this
        # quiver from its walk, traced and held as it would hold its own, so
        # the walk itself is not run again.
        with pytest.MonkeyPatch.context() as mp, open(os.devnull, "w") as null:
            mp.setattr(tilting, "_exchange_walk", lambda table: tq)
            mp.setattr(sys, "stdout", null)
            for fmt in ("dot", "json"):
                tracemalloc.reset_peak()
                assert main(["graph", "--type", "D", "--rank", "9", "--format", fmt]) == 0
                export_peak[fmt] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "quiver_held": held - table_held,
        "n_arrows": len(tq.arrows),
        "walk_peak": max(table_peak, peak),
        "own_walk_peak": peak - table_held,
        "hasse_ok": report.ok,
        "hasse_added": hasse_added,
        "export_peak": export_peak,
    }


@pytest.fixture
def exchange_walks(monkeypatch):
    """The Ext table of every exchange walk run while the test runs, in call order."""
    from tiltquiver import tilting

    walks = []
    walk = tilting._exchange_walk

    def spy(table):
        walks.append(table)
        return walk(table)

    monkeypatch.setattr(tilting, "_exchange_walk", spy)
    return walks
