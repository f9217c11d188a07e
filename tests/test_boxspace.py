import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from homcover import (build_tower, build_zm_cover, compression_profile,
                      cover_girth, girth, named_graph)
from homcover.boxspace import girth_vertex_transitive
from homcover.errors import SizeCapExceeded
from homcover.graph import cayley_zm_power, cycle_graph


class TestGirthShortcut:
    def test_cayley_z3_squared(self):
        assert girth_vertex_transitive(cayley_zm_power(2, 3)) == 3

    def test_c8(self):
        assert girth_vertex_transitive(cycle_graph(8)) == 8

    @pytest.mark.parametrize("name", ["k4", "c5", "petersen", "doubled_edge"])
    def test_agrees_with_full_girth(self, name):
        g = named_graph(name)
        assert girth_vertex_transitive(g) == girth(g)

    def test_agrees_with_fiber_root_girth_on_tower(self):
        # levels >= 2 are covers, whose girth the orbit group makes exact
        # from one root per orbit; the unlabelled level graphs take every
        # vertex as a root, and the labelled seed one root
        tower = build_tower(2, 2, 3)
        girths = [lvl.girth_value for lvl in tower.levels]
        assert girths == [4, 8, 16]
        for lvl in tower.levels[1:]:
            assert girth_vertex_transitive(lvl.graph) == cover_girth(lvl.cover)
        seed = build_tower(2, 3, 1).levels[0].graph  # level 1 of (2, 3, 2)
        assert girth_vertex_transitive(seed) == girth(seed) == 3

    def test_agrees_on_covers(self):
        for name, m in [("k4", 3), ("c5", 3), ("petersen", 2)]:
            g = build_zm_cover(named_graph(name), m).graph
            assert g.vertex_count <= 10 ** 4
            assert girth_vertex_transitive(g) == girth(g)


class TestTower:
    def test_m3_level_sizes(self):
        tower = build_tower(2, 3, 2)
        assert [lvl.graph.vertex_count for lvl in tower.levels] == [9, 531441]
        assert not tower.truncated
        assert tower.levels[0].girth_value == 3
        assert tower.levels[1].girth_value > 3

    def test_builds_no_cover_arrays(self):
        # the girth search runs over base states: level 2 (531,441
        # vertices) gets no CSR arcs, profiles, orbit representatives or
        # tails, and the build peaks near the targets of its int32 arc
        # table (about 8.5 MB), whose even entries are the heads
        tracemalloc.start()
        try:
            tower = build_tower(2, 3, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cover = tower.levels[1].cover
        assert cover._orbit_reps is None
        assert cover._formula is None
        assert cover._profiles is None
        assert cover._deck is None and cover._tree is None
        assert cover.graph._arcs is None
        assert cover.graph._tails is None
        assert np.shares_memory(cover.graph.heads, cover.graph.arc_heads())
        assert peak < 16 << 20

    def test_profile_pass_materialises_no_tails(self):
        # the build, the orbit representatives and the BFS and d_Q rows of
        # a 32-source profile read the arc table's targets and the base
        # only (27.0 MiB traced when the table also stored its sources)
        tracemalloc.start()
        try:
            cover = build_tower(2, 3, 2).levels[1].cover
            sources = sorted(random.Random(7).sample(
                range(cover.graph.vertex_count), 32))
            prof = compression_profile(cover, sources, "dq")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert prof
        assert cover._orbit_reps is not None and cover._profiles is None
        assert cover.graph._tails is None
        assert peak < 22 << 20

    def test_girth_growth_is_checked_under_optimisation(self, tmp_path):
        # a girth that does not grow is a bug (exit 3), also where
        # python -O strips assert statements
        probe = (
            "import sys, homcover.boxspace as b; from homcover.cli import main; "
            "b.cover_girth = lambda c: 4; "
            "sys.exit(main(['tower', 'build', '--rank', '2', '--m', '2', "
            "'--levels', '2', '--out-dir', 'out']))")
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        run = subprocess.run([sys.executable, "-O", "-c", probe],
                             capture_output=True, text=True, env=env,
                             cwd=tmp_path, timeout=120)
        assert run.returncode == 3
        assert ("internal error: AssertionError: girth failed to grow at "
                "level 2") in run.stderr
        assert not (tmp_path / "out").exists()

    def test_m2_is_cycle_doubling(self):
        tower = build_tower(2, 2, 3)
        sizes = [lvl.graph.vertex_count for lvl in tower.levels]
        girths = [lvl.girth_value for lvl in tower.levels]
        assert sizes == [4, 8, 16]
        assert girths == [4, 8, 16]

    def test_single_level_is_seed(self):
        tower = build_tower(2, 3, 1)
        assert len(tower.levels) == 1
        assert tower.levels[0].cover is None
        g = tower.levels[0].graph
        assert (g.vertex_count, g.edge_count) == (9, 18)

    def test_truncation(self):
        tower = build_tower(2, 3, 5, size_cap=1000)
        assert tower.truncated
        assert len(tower.levels) == 1

    def test_seed_too_big(self):
        with pytest.raises(SizeCapExceeded):
            build_tower(8, 3, 1, size_cap=100)

    def test_girth_strictly_increases(self):
        tower = build_tower(3, 2, 3)
        girths = [lvl.girth_value for lvl in tower.levels]
        assert all(a < b for a, b in zip(girths, girths[1:]))

    def test_cover_relations(self):
        tower = build_tower(2, 2, 3)
        for prev, lvl in zip(tower.levels, tower.levels[1:]):
            assert lvl.cover is not None
            assert lvl.cover.base is prev.graph
            assert lvl.cover.graph is lvl.graph

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            build_tower(1, 3, 1)
        with pytest.raises(ValueError):
            build_tower(2, 3, 0)
