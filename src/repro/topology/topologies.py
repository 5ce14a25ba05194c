"""Interconnection topologies and their distance metrics (Section 5.1).

The paper's Section 5.1 table lists asymptotic average inter-node
distances for seven networks and evaluates them at ``P = 1024`` to argue
that "for configurations of practical interest the difference between
topologies is a factor of two, except for very primitive networks" —
i.e. topology-dependent distance is a second-order effect and an
abstract latency ``L`` is a sound model.

Each topology here provides:

* an explicit :mod:`networkx` graph (direct networks) or stage structure
  (butterfly, fat tree);
* the paper's closed-form average distance;
* an exact average distance by BFS (cross-checking the formula);
* diameter and bisection width (used by the ``g`` calibration recipe).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import networkx as nx

# networkx is imported where a graph is built, not here: importing the
# simulator (which imports this package) should not pay for it.

__all__ = [
    "Topology",
    "Hypercube",
    "Butterfly",
    "FatTree",
    "Mesh2D",
    "Torus2D",
    "Mesh3D",
    "Torus3D",
    "PAPER_TOPOLOGIES",
    "average_distance_exact",
]


def average_distance_exact(G: nx.Graph) -> float:
    """Mean shortest-path distance over ordered distinct node pairs."""
    import networkx as nx

    n = G.number_of_nodes()
    if n < 2:
        return 0.0
    total = 0
    for _, dists in nx.all_pairs_shortest_path_length(G):
        total += sum(dists.values())
    return total / (n * (n - 1))


@dataclass(frozen=True)
class Topology:
    """Base class: a named topology instantiated for ``P`` processors."""

    P: int

    name: str = ""
    formula: str = ""  # the paper's asymptotic expression, as text

    def graph(self) -> nx.Graph:
        """The processor-interconnect graph (direct networks only)."""
        raise NotImplementedError

    def average_distance(self) -> float:
        """The paper's closed-form average distance at this ``P``."""
        raise NotImplementedError

    def average_distance_bfs(self) -> float:
        """Exact average distance over the explicit graph."""
        return average_distance_exact(self.graph())

    def diameter(self) -> int:
        import networkx as nx

        return nx.diameter(self.graph())

    def bisection_width(self) -> int:
        """Links crossing the best balanced cut (closed form per class)."""
        raise NotImplementedError


class Hypercube(Topology):
    """Binary hypercube: average distance ``log2(P)/2``."""

    def __init__(self, P: int) -> None:
        d = math.log2(P)
        if d != int(d):
            raise ValueError(f"hypercube needs power-of-two P, got {P}")
        super().__init__(P=P, name="Hypercube", formula="log2(p)/2")

    def graph(self) -> nx.Graph:
        import networkx as nx

        d = int(math.log2(self.P))
        G = nx.Graph()
        G.add_nodes_from(range(self.P))
        for v in range(self.P):
            for b in range(d):
                u = v ^ (1 << b)
                if u > v:
                    G.add_edge(v, u)
        return G

    def average_distance(self) -> float:
        # Mean Hamming distance between distinct labels:
        # (d/2) * P/(P-1); the paper quotes the asymptote d/2.
        return math.log2(self.P) / 2

    def average_distance_bfs(self) -> float:
        d = int(math.log2(self.P))
        # Exact: sum_k k*C(d,k) / (P-1) = d*2^(d-1)/(P-1).
        return d * 2 ** (d - 1) / (self.P - 1)

    def bisection_width(self) -> int:
        return self.P // 2


class Butterfly(Topology):
    """log P-stage butterfly (indirect): every route crosses ``log2 P``
    stages, so the average distance *is* ``log2 P``."""

    def __init__(self, P: int) -> None:
        d = math.log2(P)
        if d != int(d):
            raise ValueError(f"butterfly needs power-of-two P, got {P}")
        super().__init__(P=P, name="Butterfly", formula="log2(p)")

    def graph(self) -> nx.Graph:
        """Switch graph: node (c, r) for column c in 0..log P, row r.

        Processor r attaches at (0, r); memory/targets at (log P, r).
        """
        import networkx as nx

        d = int(math.log2(self.P))
        G = nx.Graph()
        for c in range(d):
            for r in range(self.P):
                G.add_edge((c, r), (c + 1, r))
                G.add_edge((c, r), (c + 1, r ^ (1 << (d - 1 - c))))
        return G

    def average_distance(self) -> float:
        return math.log2(self.P)

    def average_distance_bfs(self) -> float:
        # Indirect network: distance is the fixed stage count.
        return float(int(math.log2(self.P)))

    def diameter(self) -> int:
        return int(math.log2(self.P))

    def bisection_width(self) -> int:
        return self.P // 2


class FatTree(Topology):
    """4-ary fat tree: average leaf-to-leaf distance
    ``2 log4(p) - 2/3`` asymptotically (9.33 at P=1024, the table's
    value; the node pays 2 hops per tree level up to the lowest common
    ancestor)."""

    def __init__(self, P: int) -> None:
        h = math.log(P, 4)
        if abs(h - round(h)) > 1e-9:
            raise ValueError(f"4-ary fat tree needs P a power of 4, got {P}")
        super().__init__(P=P, name="4deg Fat Tree", formula="2*log4(p) - 2/3")

    @property
    def height(self) -> int:
        return round(math.log(self.P, 4))

    def graph(self) -> nx.Graph:
        """Skeleton tree (one switch per internal node; capacity is not
        represented — only distances matter here)."""
        import networkx as nx

        G = nx.Graph()
        h = self.height
        # Node (l, i): level-l switch i; leaves are (0, i).
        for level in range(h):
            for i in range(4 ** (h - level)):
                G.add_edge((level, i), (level + 1, i // 4))
        return G

    def average_distance(self) -> float:
        # Exact over uniformly random ordered distinct leaf pairs:
        # E[2 * LCA level] with P(LCA <= l) = (4^l - 1)/(P - 1).
        h, P = self.height, self.P
        total = 0.0
        for level in range(1, h + 1):
            p_here = (4**level - 4 ** (level - 1)) / (P - 1)
            total += 2 * level * p_here
        return total

    def average_distance_bfs(self) -> float:
        import networkx as nx

        G = self.graph()
        leaves = [(0, i) for i in range(self.P)]
        total = 0
        for leaf in leaves:
            dists = nx.single_source_shortest_path_length(G, leaf)
            total += sum(dists[x] for x in leaves if x != leaf)
        return total / (self.P * (self.P - 1))

    def diameter(self) -> int:
        return 2 * self.height

    def bisection_width(self) -> int:
        # An ideal fat tree has full bisection bandwidth.
        return self.P // 2


class _Grid(Topology):
    """Common base for k x k (x k) meshes and tori."""

    wrap: bool = False
    dims: int = 2

    def __init__(self, P: int, name: str, formula: str) -> None:
        k = round(P ** (1.0 / self.dims))
        if k**self.dims != P:
            raise ValueError(
                f"{name} needs P a perfect {self.dims}-power, got {P}"
            )
        super().__init__(P=P, name=name, formula=formula)

    @property
    def side(self) -> int:
        return round(self.P ** (1.0 / self.dims))

    def graph(self) -> nx.Graph:
        import networkx as nx

        G = nx.grid_graph(dim=[self.side] * self.dims, periodic=self.wrap)
        return G

    def _per_dim_average(self) -> float:
        k = self.side
        if self.wrap:
            # Ring of k: average distance k/4 (exactly k^2/(4(k-1)) odd/even
            # nuances; the paper uses the asymptote k/4).
            return k / 4
        # Path of k: average |i-j| over distinct pairs -> (k+1)/3 ~ k/3.
        return k / 3

    def average_distance(self) -> float:
        return self.dims * self._per_dim_average()

    def bisection_width(self) -> int:
        k = self.side
        per_cut = k ** (self.dims - 1)
        return 2 * per_cut if self.wrap else per_cut


class Mesh2D(_Grid):
    wrap = False
    dims = 2

    def __init__(self, P: int) -> None:
        super().__init__(P, "2D Mesh", "(2/3)*sqrt(p)")


class Torus2D(_Grid):
    wrap = True
    dims = 2

    def __init__(self, P: int) -> None:
        super().__init__(P, "2D Torus", "(1/2)*sqrt(p)")


class Mesh3D(_Grid):
    wrap = False
    dims = 3

    def __init__(self, P: int) -> None:
        super().__init__(P, "3D Mesh", "p**(1/3)")


class Torus3D(_Grid):
    wrap = True
    dims = 3

    def __init__(self, P: int) -> None:
        super().__init__(P, "3D Torus", "(3/4)*p**(1/3)")


def PAPER_TOPOLOGIES(P: int = 1024) -> list[Topology]:
    """The seven topologies of the Section 5.1 table, instantiated at
    ``P`` (1024 in the paper; 3D networks use the nearest cube,
    ``10**3 = 1000``, matching the paper's ``p**(1/3) ~ 10``)."""
    cube_side = round(P ** (1 / 3))
    P3 = cube_side**3
    return [
        Hypercube(P),
        Butterfly(P),
        FatTree(P),
        Torus3D(P3),
        Mesh3D(P3),
        Torus2D(P),
        Mesh2D(P),
    ]
