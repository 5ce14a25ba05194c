"""Tests for repro.topology.topologies: the Section 5.1 distance table."""

import pytest

from repro.topology import (
    PAPER_TOPOLOGIES,
    Butterfly,
    FatTree,
    Hypercube,
    Mesh2D,
    Mesh3D,
    Torus2D,
    Torus3D,
    average_distance_exact,
)


class TestSection51Table:
    """The paper's table at P = 1024 (3D networks at 1000)."""

    PAPER_VALUES = {
        "Hypercube": 5.0,
        "Butterfly": 10.0,
        "4deg Fat Tree": 9.33,
        "3D Torus": 7.5,
        "3D Mesh": 10.0,
        "2D Torus": 16.0,
        "2D Mesh": 21.0,
    }

    def test_all_seven_topologies_present(self):
        names = [t.name for t in PAPER_TOPOLOGIES(1024)]
        assert set(names) == set(self.PAPER_VALUES)

    @pytest.mark.parametrize("idx", range(7))
    def test_values_match_paper(self, idx):
        t = PAPER_TOPOLOGIES(1024)[idx]
        expected = self.PAPER_VALUES[t.name]
        assert t.average_distance() == pytest.approx(expected, rel=0.02)

    def test_factor_of_two_claim(self):
        # "The difference between topologies is a factor of two, except
        # for very primitive networks" (2D mesh/torus).
        values = {
            t.name: t.average_distance() for t in PAPER_TOPOLOGIES(1024)
        }
        rich = [v for k, v in values.items() if not k.startswith("2D")]
        assert max(rich) / min(rich) <= 2.0 + 1e-9
        assert max(values.values()) / min(values.values()) <= 4.27


class TestClosedFormsVsBFS:
    """The formulas must agree with exact BFS on explicit graphs."""

    def test_hypercube_exact(self):
        t = Hypercube(64)
        assert t.average_distance_bfs() == pytest.approx(
            average_distance_exact(t.graph())
        )

    @pytest.mark.parametrize(
        "topo,rel",
        [
            (Hypercube(64), 0.05),
            (Torus2D(64), 0.05),
            (Mesh2D(64), 0.05),
            (Torus3D(64), 0.12),
            (Mesh3D(64), 0.12),
        ],
    )
    def test_formula_close_to_bfs(self, topo, rel):
        # Formulas are asymptotic; small P tolerates small deviation.
        assert topo.average_distance() == pytest.approx(
            topo.average_distance_bfs(), rel=rel
        )

    def test_fat_tree_formula_is_exact(self):
        t = FatTree(64)
        assert t.average_distance() == pytest.approx(
            t.average_distance_bfs()
        )

    def test_butterfly_distance_is_stage_count(self):
        assert Butterfly(64).average_distance() == 6


class TestStructure:
    def test_hypercube_degree(self):
        G = Hypercube(32).graph()
        assert all(d == 5 for _, d in G.degree())

    def test_hypercube_diameter(self):
        assert Hypercube(32).diameter() == 5

    def test_torus_regular_degree(self):
        G = Torus2D(25).graph()
        assert all(d == 4 for _, d in G.degree())

    def test_mesh_corner_degree(self):
        G = Mesh2D(25).graph()
        degrees = sorted(d for _, d in G.degree())
        assert degrees[0] == 2 and degrees[-1] == 4

    def test_bisection_widths(self):
        assert Hypercube(64).bisection_width() == 32
        assert Torus2D(64).bisection_width() == 16
        assert Mesh2D(64).bisection_width() == 8
        assert FatTree(64).bisection_width() == 32

    def test_fat_tree_leaf_count(self):
        t = FatTree(64)
        G = t.graph()
        leaves = [n for n in G.nodes if n[0] == 0]
        assert len(leaves) == 64

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            Hypercube(48)
        with pytest.raises(ValueError):
            FatTree(32)
        with pytest.raises(ValueError):
            Mesh2D(30)
        with pytest.raises(ValueError):
            Torus3D(100)

    def test_node_counts(self):
        assert Hypercube(128).graph().number_of_nodes() == 128
        assert Mesh3D(27).graph().number_of_nodes() == 27


def test_simulator_imports_leave_networkx_out():
    """networkx loads where a graph is built, not with the simulator:
    the server, the live backend and the sweep runner never import it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    code = (
        "import sys, repro.serve, repro.live, repro.sim.sweep\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'networkx'))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == "[]"
    # ...and a graph still builds when asked for.
    assert Hypercube(8).diameter() == 3
