"""Bipartite configuration graphs with a finite symmetry action.

A graph here records how the irreducible pieces of a one dimensional
configuration meet: vertices split into components (each carrying a genus
label) and nodes, and every node lies on exactly two distinct components.
A finite list of permutations acts on the picture; in finite field mode the
list has length one and the single permutation plays the role of Frobenius.

On top of the combinatorics the module computes cycle homology together with
the induced action, enumerates spanning trees and their orbits, extracts the
gcd invariant m of the orbit sizes, and assembles the finite level module Xi
from a divisor configuration, with the explicit section psi of the residue
projection phi and its Bezout combination across orbits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import EnumerationCapExceeded, VerificationFailed
from .exactlin import (
    IntMatrix,
    LMap,
    LModule,
    SmithForm,
    adjugate,
    free_level,
    integer_kernel_basis,
    kernel,
    kernel_coordinates,
    level_kernel,
    preimage,
    solve_integer,
)

Edge = Tuple[str, str]

DEFAULT_TREE_CAP = 10 ** 6


# ---------------------------------------------------------------------------
# the graph


def orbit_partition(points, images) -> List[list]:
    """Orbits of points under a group action, in order of first appearance.

    images(x) lists the image of x under each generator; an orbit lists
    the points reached from its first one by repeatedly applying them, in
    the order found.
    """
    seen = set()
    out = []
    for start in points:
        if start in seen:
            continue
        seen.add(start)
        orbit = [start]
        for x in orbit:
            for img in images(x):
                if img not in seen:
                    seen.add(img)
                    orbit.append(img)
        out.append(orbit)
    return out


def _components(vertices, edges) -> List[set]:
    """Connected components of the graph on vertices with the given edges."""
    adj: Dict = {v: [] for v in vertices}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return orbit_partition(vertices, adj.__getitem__)


class DualGraph:
    """Bipartite graph of components and nodes with its symmetry action.

    components: iterable of (id, genus) pairs.
    nodes: iterable of node ids.
    edges: iterable of two element collections, each joining a component id
        and a node id (in either order).
    action: iterable of permutations, each given as a mapping id -> id;
        ids omitted from a mapping are fixed.

    Everything is sorted on construction so that derived data (boundary
    matrices, homology bases, tree enumerations) never depends on input
    order.  Validation enforces: bipartite edges, every node on exactly two
    distinct components, connectivity, and action permutations preserving
    the two vertex classes, the edge set and the genus labels.
    """

    def __init__(self, components, nodes, edges, action=()):
        comps = sorted((str(c), int(g)) for c, g in components)
        node_ids = sorted(str(n) for n in nodes)
        comp_ids = [c for c, _ in comps]
        if len(set(comp_ids)) != len(comp_ids):
            raise ValueError("duplicate component id")
        if len(set(node_ids)) != len(node_ids):
            raise ValueError("duplicate node id")
        if set(comp_ids) & set(node_ids):
            raise ValueError("component and node ids must be disjoint")
        if any(g < 0 for _, g in comps):
            raise ValueError("negative genus")
        if not comps:
            raise ValueError("graph needs at least one component")
        self.components: Tuple[Tuple[str, int], ...] = tuple(comps)
        self.nodes: Tuple[str, ...] = tuple(node_ids)
        self._genus = dict(comps)
        cset, nset = set(comp_ids), set(node_ids)

        norm: List[Edge] = []
        for e in edges:
            pair = list(e)
            if len(pair) != 2:
                raise ValueError(f"edge {pair!r} must have two endpoints")
            a, b = str(pair[0]), str(pair[1])
            if a in cset and b in nset:
                norm.append((a, b))
            elif b in cset and a in nset:
                norm.append((b, a))
            else:
                raise ValueError(f"edge {pair!r} must join a component and a node")
        if len(set(norm)) != len(norm):
            raise ValueError("duplicate edge")
        self.edges: Tuple[Edge, ...] = tuple(sorted(norm))
        # edge i of a tree mask is bit E-1-i, so that decreasing masks list
        # trees in the order of their sorted edge index tuples
        top = len(self.edges) - 1
        self.edge_bit: Dict[Edge, int] = {
            e: 1 << top - i for i, e in enumerate(self.edges)}

        at_node: Dict[str, List[str]] = {n: [] for n in self.nodes}
        for c, n in self.edges:
            at_node[n].append(c)
        for n, cs in at_node.items():
            if len(cs) != 2 or len(set(cs)) != 2:
                raise ValueError(
                    f"node {n} must lie on exactly two distinct components, "
                    f"found {sorted(cs)}"
                )
        self._node_comps = {n: tuple(sorted(cs)) for n, cs in at_node.items()}
        comp_nodes: Dict[str, List[str]] = {c: [] for c in comp_ids}
        for c, n in self.edges:
            comp_nodes[c].append(n)
        self._comp_nodes = {c: tuple(sorted(ns)) for c, ns in comp_nodes.items()}

        if len(_components(self.vertex_ids, self.edges)) != 1:
            raise ValueError("graph is not connected")
        self.action: Tuple[Dict[str, str], ...] = tuple(
            self._normalize_perm(p) for p in action
        )

    # -- validation helpers ------------------------------------------

    def _normalize_perm(self, p) -> Dict[str, str]:
        verts = list(self._genus) + list(self.nodes)
        full = {v: v for v in verts}
        for k, v in dict(p).items():
            k, v = str(k), str(v)
            if k not in full:
                raise ValueError(f"permutation moves unknown id {k!r}")
            full[k] = v
        if sorted(full.values()) != sorted(verts):
            raise ValueError("action entry is not a permutation of the vertices")
        for c in self._genus:
            if full[c] not in self._genus:
                raise ValueError(f"action must map components to components ({c})")
            if self._genus[full[c]] != self._genus[c]:
                raise ValueError(f"action must preserve genus labels ({c})")
        for n in self.nodes:
            if full[n] not in self._node_comps:
                raise ValueError(f"action must map nodes to nodes ({n})")
        mapped = {(full[c], full[n]) for c, n in self.edges}
        if mapped != set(self.edges):
            raise ValueError("action does not preserve the edge set")
        return full

    # -- queries -----------------------------------------------------

    @property
    def component_ids(self) -> Tuple[str, ...]:
        return tuple(c for c, _ in self.components)

    def genus(self, comp_id: str) -> int:
        return self._genus[comp_id]

    def node_components(self, node_id: str) -> Tuple[str, str]:
        return self._node_comps[node_id]

    def component_nodes(self, comp_id: str) -> Tuple[str, ...]:
        return self._comp_nodes[comp_id]

    @property
    def vertex_ids(self) -> Tuple[str, ...]:
        # components first, then nodes, each block sorted
        return self.component_ids + self.nodes

    def edge_image(self, perm: Dict[str, str], e: Edge) -> Edge:
        return (perm[e[0]], perm[e[1]])

    def component_orbits(self) -> Tuple[Tuple[str, ...], ...]:
        found = orbit_partition(self.component_ids,
                                lambda v: [p[v] for p in self.action])
        return tuple(tuple(sorted(o)) for o in found)

    @cached_property
    def cycle_basis(self) -> IntMatrix:
        """Cycle lattice basis, ker of the boundary map Z^E -> Z^V, taken once."""
        return integer_kernel_basis(_boundary_matrix(self))

    def __eq__(self, other) -> bool:
        if not isinstance(other, DualGraph):
            return NotImplemented
        return (
            self.components == other.components
            and self.nodes == other.nodes
            and self.edges == other.edges
            and self.action == other.action
        )

    def __repr__(self):
        return (
            f"DualGraph({len(self.components)} components, "
            f"{len(self.nodes)} nodes, {len(self.edges)} edges, "
            f"{len(self.action)} action generators)"
        )


def betti(graph: DualGraph) -> int:
    """First Betti number |E| - |V| + 1 of the (connected) graph."""
    nverts = len(graph.components) + len(graph.nodes)
    return len(graph.edges) - nverts + 1


def n_x(graph: DualGraph) -> int:
    """Sum of the genus labels plus the first Betti number."""
    return sum(g for _, g in graph.components) + betti(graph)


# ---------------------------------------------------------------------------
# cycle homology and the induced action


@dataclass(frozen=True)
class HomologyLattice:
    """Integer cycle lattice of a graph with the action expressed in a basis.

    basis columns span ker of the boundary map Z^E -> Z^V for the fixed
    orientation component -> node, edges in sorted order.  action_matrices
    give, per generator, the matrix M with basis @ M equal to basis with
    its rows (the oriented edges) permuted by the generator.
    """

    basis: IntMatrix
    action_matrices: Tuple[IntMatrix, ...]

    @property
    def rank(self) -> int:
        return self.basis.cols


def _boundary_matrix(graph: DualGraph) -> IntMatrix:
    verts = graph.vertex_ids
    vindex = {v: i for i, v in enumerate(verts)}
    rows = [[0] * len(graph.edges) for _ in verts]
    for j, (c, n) in enumerate(graph.edges):
        rows[vindex[n]][j] += 1
        rows[vindex[c]][j] -= 1
    return IntMatrix.from_rows(rows, len(graph.edges))


def perm_rows(order: Sequence, image) -> tuple:
    """Row indices that move the row at x to the position of image(x):
    X.take_rows(perm_rows(order, image)) permutes X's rows.  order lists
    the coordinates; image maps each of them into order, bijectively.

    >>> perm_rows("abc", {"a": "b", "b": "c", "c": "a"}.get)
    (2, 0, 1)
    """
    index = {x: i for i, x in enumerate(order)}
    rows = [None] * len(order)
    for j, x in enumerate(order):
        rows[index[image(x)]] = j
    return tuple(rows)


def _compose_perms(first: Dict[str, str], then: Dict[str, str]) -> Dict[str, str]:
    # apply `first`, then `then`
    return {k: then[v] for k, v in first.items()}


def h1_lattice(graph: DualGraph) -> HomologyLattice:
    """Cycle lattice with the action induced by permuting oriented edges.

    The orientation is component -> node throughout; the action preserves
    the two vertex classes, so permuted oriented edges keep their
    orientation and no sign corrections arise.  Group relations of the
    generators are re-checked on all short words.
    """
    basis = graph.cycle_basis
    c = basis.cols

    def moved(perm):
        return basis.take_rows(
            perm_rows(graph.edges, lambda e: graph.edge_image(perm, e)))

    mats = []
    for p in graph.action:
        target = moved(p)
        M = solve_integer(basis, target)
        if M is None or (basis @ M) != target:
            raise VerificationFailed("induced matrix does not reproduce the edge action")
        if c and M.det() not in (1, -1):
            raise VerificationFailed("induced action matrix is not unimodular")
        mats.append(M)

    # relation check: every word of length <= 4 in the generators must act
    # through the matrix computed from the composed permutation; the basis
    # columns are independent, so basis @ mat = the moved basis pins mat down
    ngen = len(graph.action)
    if ngen and c:
        words: List[Tuple[int, ...]] = [()]
        for _ in range(4):
            words = [w + (i,) for w in words for i in range(ngen)]
            if len(words) > 700:
                break
            for w in words:
                perm = {v: v for v in graph.vertex_ids}
                mat = IntMatrix.identity(c)
                for i in w:
                    perm = _compose_perms(perm, graph.action[i])
                    mat = mats[i] @ mat
                if basis @ mat != moved(perm):
                    raise VerificationFailed(
                        f"action matrices violate the group relation for word {w}")
    return HomologyLattice(basis, tuple(mats))


def fixed_rank(mats: Sequence[IntMatrix], n: int) -> int:
    """Rank of the common fixed sublattice of n x n integer matrices: the
    kernel rank of the rows of every M - 1, stacked.  For the action
    matrices of a cycle lattice this is its invariant_rank, rho."""
    if not mats or n == 0:
        return n
    one = IntMatrix.identity(n)
    rows = tuple(r for M in mats for r in (M - one).data)
    return integer_kernel_basis(IntMatrix._trusted(len(rows), n, rows)).cols


def dual_fixed_rank(mats: Sequence[IntMatrix], n: int) -> int:
    """fixed_rank of the dual of Z^n, which carries the contragredient
    (inverse transpose) action of the generators mats.

    A generator that is not n x n, or not invertible over the integers,
    raises ValueError.  Each generator's det d = +-1 is taken once: it is
    both the invertibility check and the sign in m^-1 = d adj(m).
    """
    contra = []
    for m in mats:
        if m.rows != n or m.cols != n:
            raise ValueError("generators must be square of the lattice rank")
        d = m.det()
        if d not in (1, -1):
            raise ValueError("generators must be invertible over the integers")
        contra.append(adjugate(m).scale(d).transpose())
    return fixed_rank(contra, n)


def invariant_rank(lattice: HomologyLattice) -> int:
    """Rank of the common fixed sublattice of all action matrices."""
    return fixed_rank(lattice.action_matrices, lattice.rank)


# ---------------------------------------------------------------------------
# spanning trees, orbits, m


def laplacian(graph: DualGraph) -> IntMatrix:
    """Graph Laplacian, vertices in vertex_ids order.

    B B^T for the boundary matrix B; DualGraph has no repeated edges, so
    every off-diagonal entry is -1 or 0.
    """
    B = _boundary_matrix(graph)
    return B @ B.transpose()


def _multigraph_trees(nverts: int, ends: Sequence[Tuple[int, int]]):
    """Spanning trees of a connected loopless multigraph, as edge indices.

    Vertices are 0..nverts-1 and edge j joins ends[j]; parallel edges are
    allowed.  Deletion/contraction on the first remaining edge: the branch
    that keeps it merges its ends and drops the loops this makes, the
    branch that deletes it is taken only when the rest still connects the
    graph.  Every branch so holds a connected graph, and one with an edge
    fewer than vertices is a tree, emitted whole without recursing.
    """
    found: List[Tuple[int, ...]] = []

    def rec(edges, alive: frozenset, chosen: Tuple[int, ...]):
        if len(edges) == len(alive) - 1:
            found.append(chosen + tuple(j for _, _, j in edges))
            return
        (a, b, j), rest = edges[0], edges[1:]
        merged = [(a if x == b else x, a if y == b else y, k)
                  for x, y, k in rest]
        rec([e for e in merged if e[0] != e[1]], alive - {b}, chosen + (j,))
        if len(_components(alive, [e[:2] for e in rest])) == 1:
            rec(rest, alive, chosen)

    rec([(a, b, j) for j, (a, b) in enumerate(ends)], frozenset(range(nverts)),
        ())
    return found


def tree_edges(graph: DualGraph, mask: int) -> Tuple[Edge, ...]:
    """The edges of a tree mask, in graph.edges order: the one reader of a
    mask's edges."""
    return tuple(e for e, b in graph.edge_bit.items() if mask & b)


def spanning_trees(graph: DualGraph, cap: int = DEFAULT_TREE_CAP):
    """All spanning trees as edge bitmasks (graph.edge_bit), decreasing.

    Every node lies on exactly two distinct components, so the graph is the
    subdivision of its component multigraph M, whose vertices are the
    components and whose edges are the nodes.  A spanning tree of the graph
    is a spanning tree T of M with both edges at every node of T, plus one
    of the two edges at every other node: with N nodes and C components
    there are tau(M) * 2^(N - C + 1) of them.  That count comes first, from
    a cofactor of M's C x C Laplacian (the matrix-tree theorem), so more
    than cap trees raise EnumerationCapExceeded, naming the count, before
    any larger determinant or any enumeration.  Under the cap M's trees are
    enumerated and each expanded by OR-ing the masks of its nodes' halves.
    The count is checked against the graph's own Laplacian cofactor; a
    mismatch means the enumerator itself is broken and raises immediately.

    The 3-banana, two components through three nodes, has tau(M) = 3:

    >>> g = DualGraph([("u", 0), ("v", 0)], ["a", "b", "c"],
    ...               [(c, n) for c in "uv" for n in "abc"])
    >>> len(spanning_trees(g))  # 3 * 2^(3 - 2 + 1)
    12
    """
    cindex = {c: i for i, c in enumerate(graph.component_ids)}
    pairs = [graph.node_components(n) for n in graph.nodes]
    ends = [(cindex[a], cindex[b]) for a, b in pairs]
    lap = [[0] * len(cindex) for _ in cindex]   # M's Laplacian
    for a, b in ends + [e[::-1] for e in ends]:
        lap[a][a] += 1
        lap[a][b] -= 1
    minor = IntMatrix.from_rows([r[1:] for r in lap[1:]], len(lap) - 1)
    count = minor.det() * 2 ** (len(ends) - len(lap) + 1)
    if count > cap:
        raise EnumerationCapExceeded(
            f"{count} spanning trees exceed the cap of {cap}; raise the "
            f"cap to enumerate")
    bit = graph.edge_bit
    halves = [(bit[a, n], bit[b, n]) for (a, b), n in zip(pairs, graph.nodes)]
    found: List[int] = []
    for t in _multigraph_trees(len(lap), ends):
        kept = set(t)
        masks = [sum(x | y for x, y in map(halves.__getitem__, t))]
        for j, (x, y) in enumerate(halves):
            if j not in kept:
                masks = [m | x for m in masks] + [m | y for m in masks]
        found += masks
    found.sort(reverse=True)
    idx = range(1, len(graph.vertex_ids))
    cofactor = laplacian(graph).take_rows(idx).take_cols(idx).det()
    if not len(found) == count == cofactor:
        raise VerificationFailed(
            f"spanning tree enumeration found {len(found)} trees but the "
            f"matrix-tree theorem counts {count} (M) and {cofactor} (graph)")
    return tuple(found)


def _tree_orbit_positions(graph: DualGraph, masks, not_closed: Exception):
    """Orbits of tree masks (graph.edge_bit) under the action, each a
    sorted list of positions in masks; an image outside the given masks
    raises not_closed.  A generator maps a mask one byte at a time: per
    8-bit chunk of the mask, a table sends each byte value to the bits of
    its edges' images."""
    edges, bit = graph.edges, graph.edge_bit
    position = {mask: k for k, mask in enumerate(masks)}
    nbytes = (len(edges) + 7) // 8
    data = [mask.to_bytes(nbytes, "little") for mask in masks]
    images = []
    for p in graph.action:
        # the image bit of each bit, lowest first
        moved = [bit[graph.edge_image(p, e)] for e in reversed(edges)]
        img = [0] * len(masks)
        for c in range(nbytes):
            table = [0]
            for b in moved[8 * c:8 * c + 8]:
                table += [x | b for x in table]
            img = [x | table[d[c]] for x, d in zip(img, data)]
        pos = list(map(position.get, img))
        if None in pos:
            raise not_closed
        images.append(pos)
    per_tree = list(zip(*images)) if images else [()] * len(masks)
    return [sorted(o) for o in orbit_partition(range(len(masks)),
                                               per_tree.__getitem__)]


def tree_orbits(graph: DualGraph, cap: int = DEFAULT_TREE_CAP):
    """Orbits of the spanning tree masks under the generated action group,
    each a tuple of masks in spanning_trees order, the orbits ordered by
    their position lists.  build_psi takes each orbit as it is, and
    tree_edges reads a mask's edges."""
    trees = spanning_trees(graph, cap)
    orbits = _tree_orbit_positions(graph, trees, VerificationFailed(
        "action image of a spanning tree is not a spanning tree"))
    return tuple(tuple(trees[k] for k in o) for o in sorted(orbits))


# ---------------------------------------------------------------------------
# the balanced tree solver


def _leaf_order(graph: DualGraph, edges):
    """Leaf elimination on a spanning tree's edges: the (leaf, edge, other
    end) steps in peeling order, and the vertices never peeled (one)."""
    verts = graph.vertex_ids
    degree = dict.fromkeys(verts, 0)
    # xor of the positions of a vertex's unpeeled edges: at a leaf, its edge
    rest = dict.fromkeys(verts, 0)
    for i, e in enumerate(edges):
        for v in e:
            degree[v] += 1
            rest[v] ^= i
    steps = []
    leaves = [v for v in verts if degree[v] == 1]
    while leaves:
        v = leaves.pop()
        if degree[v] != 1:
            continue
        e = edges[rest[v]]
        other = e[1] if e[0] == v else e[0]
        steps.append((v, e, other))
        rest[other] ^= rest[v]
        degree[v] -= 1
        degree[other] -= 1
        if degree[other] == 1:
            leaves.append(other)
    if any(degree.values()):
        raise ValueError("leaf elimination left a cycle")
    peeled = {v for v, _, _ in steps}
    return steps, [v for v in verts if v not in peeled]


def _check_balance(diff):
    if diff != 0:
        raise VerificationFailed(
            f"class totals differ by {diff}; the vertex sums admit no solution")


def _check_root(v, r):
    if r != 0:
        raise VerificationFailed(
            "leaf elimination ended with a nonzero residual "
            f"{r} at {v} despite the balance precheck")


# ---------------------------------------------------------------------------
# divisor configurations


class DivisorConfig:
    """Finite marking of points used to truncate the residue calculus.

    Each divisor is attached either to a node or to a fresh free point on a
    declared component, and every component orbit must carry at least one
    free point divisor.  Ids live in their own namespace, disjoint from the
    graph's.  The divisor action is induced by the graph action, one full
    permutation per generator: a node divisor follows its node, and the
    free divisors on a component go to those on its image, matched by
    sorted id.  A node whose image carries no divisor, or a component whose
    image carries another number of free divisors, admits no such action.

    >>> g = DualGraph([("u", 0), ("v", 0)], ["a", "b"],
    ...               [("u", "a"), ("v", "a"), ("u", "b"), ("v", "b")],
    ...               [{"a": "b", "b": "a"}])
    >>> cfg = DivisorConfig(g, [("p_u", ("free", "u")), ("p_v", ("free", "v")),
    ...                         ("d_a", ("node", "a")), ("d_b", ("node", "b"))])
    >>> sorted(cfg.action[0].items())
    [('d_a', 'd_b'), ('d_b', 'd_a'), ('p_u', 'p_u'), ('p_v', 'p_v')]
    """

    def __init__(self, graph: DualGraph, divisors):
        if not isinstance(graph, DualGraph):
            raise TypeError("first argument must be a DualGraph")
        self.graph = graph
        entries = []
        for d in divisors:
            div_id, anchor = d
            kind, target = anchor
            div_id, kind, target = str(div_id), str(kind), str(target)
            if kind not in ("node", "free"):
                raise ValueError(f"anchor kind {kind!r} must be 'node' or 'free'")
            if kind == "node" and target not in graph.nodes:
                raise ValueError(f"divisor {div_id} anchored at unknown node {target!r}")
            if kind == "free" and target not in graph.component_ids:
                raise ValueError(
                    f"divisor {div_id} placed on unknown component {target!r}")
            entries.append((div_id, kind, target))
        ids = [d for d, _, _ in entries]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate divisor id")
        graph_ids = set(graph.vertex_ids)
        if graph_ids & set(ids):
            raise ValueError("divisor ids must not reuse graph ids")
        node_anchors = [t for _, k, t in entries if k == "node"]
        if len(set(node_anchors)) != len(node_anchors):
            raise ValueError("at most one divisor per node")
        if not entries:
            raise ValueError("empty divisor set")
        self.divisors: Tuple[Tuple[str, str, str], ...] = tuple(sorted(entries))
        self._by_id = {d: (k, t) for d, k, t in self.divisors}
        self._at_node = {t: d for d, k, t in self.divisors if k == "node"}
        free: Dict[str, List[str]] = {c: [] for c in graph.component_ids}
        for d, k, t in self.divisors:
            if k == "free":
                free[t].append(d)               # in sorted id order
        self._free = {c: tuple(ds) for c, ds in free.items()}
        self.action: Tuple[Dict[str, str], ...] = tuple(
            self._induced(p) for p in graph.action)

        for orbit in graph.component_orbits():
            if not any(self._free[c] for c in orbit):
                raise ValueError(
                    f"component orbit {orbit} has no free point divisor")

    def _induced(self, perm: Dict[str, str]) -> Dict[str, str]:
        out = {}
        for c, ds in self._free.items():
            image = self._free[perm[c]]
            if len(ds) != len(image):
                raise ValueError(
                    f"free divisor counts differ between component {c!r} "
                    f"and its image {perm[c]!r}")
            out.update(zip(ds, image))
        for n, d in self._at_node.items():
            if perm[n] not in self._at_node:
                raise ValueError(
                    f"divisor {d!r}: no divisor is anchored at the image "
                    f"node {perm[n]!r}")
            out[d] = self._at_node[perm[n]]
        return out

    @property
    def ids(self) -> Tuple[str, ...]:
        return tuple(d for d, _, _ in self.divisors)

    def anchor(self, div_id: str) -> Tuple[str, str]:
        return self._by_id[div_id]

    def free_on(self, comp_id: str) -> Tuple[str, ...]:
        return self._free.get(comp_id, ())

    def anchored_at(self, node_id: str) -> Optional[str]:
        return self._at_node.get(node_id)

    def support_points(self) -> Tuple[str, ...]:
        free = [d for d, k, _ in self.divisors if k == "free"]
        return tuple(sorted(tuple(self.graph.nodes) + tuple(free)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, DivisorConfig):
            return NotImplemented
        return self.graph == other.graph and self.divisors == other.divisors


def default_divisors(graph: DualGraph) -> DivisorConfig:
    """One free point divisor on every component."""
    return DivisorConfig(graph, [(f"p_{c}", ("free", c))
                                 for c in graph.component_ids])


# ---------------------------------------------------------------------------
# the module Xi at a finite level


@dataclass
class XiLattice:
    """Xi's integer data, which no level changes, with its Smith forms.

    The ambient coordinates are one alpha per divisor and one y per
    incidence (component, support point on it).  The defining constraints:
    the y family on each component sums to zero, and at every support point
    the alpha sitting there (when one does) plus the incident y values sum
    to zero.  The constraint rows are the components, then the support
    points; its columns are the alphas, then the y incidences grouped by
    component.  cycles embeds the cycle lattice via the y coordinates on
    node incidences; projection reads the divisor block.  ambient_actions
    hold, per generator, its permutation of the ambient coordinates as a
    perm_rows index tuple; its first len(config.ids) entries permute the
    divisor block, which xi_lattice checks.  kernel holds
    the SmithForm of the transposed constraints and cycle_span that of the
    cycle embedding, which build_xi reads at every level; psi keeps
    build_psi's verified integer sections by their orbit of tree masks.
    """

    config: DivisorConfig
    var_names: tuple
    support: tuple
    constraint: IntMatrix
    projection: IntMatrix
    cycles: IntMatrix
    ambient_actions: Tuple[tuple, ...]
    kernel: SmithForm
    cycle_span: SmithForm
    psi: Dict[tuple, IntMatrix] = field(default_factory=dict,
                                        compare=False, repr=False)

    @property
    def graph(self) -> DualGraph:
        return self.config.graph

    def incidence_blocks(self) -> Tuple[IntMatrix, IntMatrix]:
        """The y columns of the component rows and of the support point rows."""
        ncomp = len(self.graph.component_ids)
        C = self.constraint
        y = C.take_cols(range(len(self.config.ids), C.cols))
        return y.take_rows(range(ncomp)), y.take_rows(range(ncomp, C.rows))

    @cached_property
    def component_sums(self) -> SmithForm:
        """Smith form of the transposed per-component sum on the y incidences."""
        return SmithForm.of(self.incidence_blocks()[0].transpose())

    @cached_property
    def zero_sum_actions(self) -> tuple:
        """Per generator, R with B R = B permuted by it, or None."""
        ndiv = len(self.config.ids)
        B = difference_basis(ndiv)
        return tuple(solve_integer(B, B.take_rows(P[:ndiv]))
                     for P in self.ambient_actions)


def xi_lattice(config: DivisorConfig) -> XiLattice:
    """Assemble Xi's integer data and take its Smith forms, once."""
    graph = config.graph
    div_ids = config.ids
    ndiv = len(div_ids)
    div_index = {d: i for i, d in enumerate(div_ids)}
    support = config.support_points()

    var_names: List[tuple] = [("alpha", d) for d in div_ids]
    comp_points: Dict[str, Tuple[str, ...]] = {}
    for c in graph.component_ids:
        comp_points[c] = tuple(sorted(graph.component_nodes(c)
                                      + config.free_on(c)))
        var_names.extend(("y", c, p) for p in comp_points[c])
    vindex = {name: i for i, name in enumerate(var_names)}
    nvars = len(var_names)

    rows: List[List[int]] = []
    for c in graph.component_ids:
        row = [0] * nvars
        for p in comp_points[c]:
            row[vindex[("y", c, p)]] = 1
        rows.append(row)
    for w in support:
        row = [0] * nvars
        if w in div_index:                      # free point: its own alpha
            row[div_index[w]] = 1
            carriers = [config.anchor(w)[1]]
        else:
            anchored = config.anchored_at(w)
            if anchored is not None:
                row[div_index[anchored]] = 1
            carriers = graph.node_components(w)
        for c in carriers:
            row[vindex[("y", c, w)]] = 1
        rows.append(row)
    C = IntMatrix.from_rows(rows, nvars)
    proj = IntMatrix.from_rows(
        [[1 if j == i else 0 for j in range(nvars)] for i in range(ndiv)], nvars)

    # cycle lattice into the y coordinates on node incidences
    cycles = graph.cycle_basis
    c_rank = cycles.cols
    hrows = [[0] * c_rank for _ in range(nvars)]
    for j, (comp, node) in enumerate(graph.edges):
        for k in range(c_rank):
            hrows[vindex[("y", comp, node)]][k] = cycles.entry(j, k)
    H = IntMatrix.from_rows(hrows, c_rank)
    if not (C @ H).is_zero():
        raise VerificationFailed("cycle columns do not satisfy the point constraints")
    if not (proj @ H).is_zero():
        raise VerificationFailed("cycle columns leak into the divisor block")

    ambient_actions = []
    for gp, dp in zip(graph.action, config.action):

        def var_image(name):
            if name[0] == "alpha":
                return ("alpha", dp[name[1]])
            _, comp, pt = name
            new_pt = dp[pt] if pt in div_index else gp[pt]
            return ("y", gp[comp], new_pt)

        P = perm_rows(var_names, var_image)
        # projection keeps the first ndiv coordinates, the divisor block
        if P[:ndiv] != perm_rows(div_ids, dp.__getitem__):
            raise VerificationFailed("divisor projection is not equivariant")
        ambient_actions.append(P)

    return XiLattice(
        config=config, var_names=tuple(var_names), support=support,
        constraint=C, projection=proj, cycles=H,
        ambient_actions=tuple(ambient_actions),
        kernel=SmithForm.of(C.transpose()), cycle_span=SmithForm.of(H),
    )


@dataclass
class XiModule:
    """Level s assembly of the residue kernel with its two structure maps.

    lattice holds the integer data behind it (see XiLattice): the graph,
    the divisor configuration, the coordinates, the constraints, the cycle
    columns, the actions and the sections psi, which live over Z; no level
    repeats them.  module is the kernel of the constraints mod l^s, with
    its inclusion into the ambient level; h1_inclusion gives the cycle
    columns in module coordinates and phi projects onto the divisor block.
    phi_kernel is the kernel of phi, as its inclusion into the module.
    """

    lattice: XiLattice
    ell: int
    level: int
    module: LModule
    inclusion: LMap
    phi_ambient: LMap
    phi: LMap
    phi_kernel: LMap
    h1_inclusion: LMap


def _span_contains(span: SmithForm, ell: int, s: int, B: IntMatrix) -> bool:
    """Every column of B lies in the mod l^s column span of A, where span is
    SmithForm.of(A).

    A submodule of (Z/l^s)^n is the annihilator of its annihilator (Z/l^s
    is self-injective), and the annihilator of A's span is ker(A^T mod
    l^s): b lies in the span exactly when every generator of that kernel
    pairs to 0 with it.
    """
    dual = level_kernel(span, ell, s).matrix
    return (dual.transpose() @ B).mod(ell ** s).is_zero()


def build_xi(lattice: XiLattice, ell: int, s: int) -> XiModule:
    """Assemble the level s kernel module with verified structure maps.

    The Smith data of the constraints and of the cycle embedding do not
    depend on s: they come from lattice, which xi_lattice builds once (a
    SingularityInstance passes its own at every level).  Every proof step
    is still taken at level s, by reading that data or by explicit solving
    mod l^s: the cycle columns lie in the kernel, the cycle embedding lands
    exactly on the kernel of phi (both inclusions), phi maps onto the zero
    sum part of the divisor block, and the action preserves the kernel.
    """
    if s < 1:
        raise ValueError("level must be >= 1")
    mod = ell ** s
    C = lattice.constraint
    ndiv = len(lattice.config.ids)

    ambient = free_level(ell, s, C.cols)
    K = level_kernel(lattice.kernel, ell, s)

    phi_ambient = LMap(ambient, free_level(ell, s, ndiv), lattice.projection)
    phi = phi_ambient.compose(K)

    H = lattice.cycles
    h1_dom = free_level(ell, s, H.cols)
    coords = kernel_coordinates(lattice.kernel, ell, s, H)
    if coords is None:
        raise VerificationFailed("cycle columns do not lie in the assembled kernel")
    h1_inclusion = LMap(h1_dom, K.domain, coords)

    # exactness in the middle: kernel of phi coincides with the cycle image.
    # The kernel lies in the cycle span by the cycle embedding's Smith data;
    # the cycle image lies in the kernel when h1_inclusion's columns lie in
    # phi_kernel's span, a solve inside the module
    phi_kernel = kernel(phi)
    ker_amb = K.matrix @ phi_kernel.matrix
    if not (_span_contains(lattice.cycle_span, ell, s, ker_amb)
            and preimage(phi_kernel, h1_inclusion.matrix) is not None):
        raise VerificationFailed("kernel of phi differs from the cycle image at this level")

    ones = IntMatrix.from_rows([[1] * ndiv], ndiv)
    if not (ones @ phi.matrix).mod(mod).is_zero():
        raise VerificationFailed("phi image does not lie in the zero sum block")
    if preimage(phi, difference_basis(ndiv)) is None:
        raise VerificationFailed("phi misses part of the zero sum block")

    for P in lattice.ambient_actions:
        if not (C @ K.matrix.take_rows(P)).mod(mod).is_zero():
            raise VerificationFailed("action does not preserve the assembled kernel")

    return XiModule(
        lattice=lattice, ell=ell, level=s,
        module=K.domain, inclusion=K,
        phi_ambient=phi_ambient, phi=phi, phi_kernel=phi_kernel,
        h1_inclusion=h1_inclusion,
    )


# ---------------------------------------------------------------------------
# the explicit section psi and its Bezout combination


def difference_basis(ndiv: int) -> IntMatrix:
    """Columns e_j - e_last, a basis of the zero sum vectors in Z^ndiv."""
    rows = [[0] * (ndiv - 1) for _ in range(ndiv)]
    for j in range(ndiv - 1):
        rows[j][j] = 1
        rows[ndiv - 1][j] = -1
    return IntMatrix.from_rows(rows, ndiv - 1)


def _psi_column(lattice: XiLattice, m: int, alpha: Dict[str, int],
                edge_sum: Dict[Edge, int]) -> List[int]:
    """The proof's assignment for one zero sum alpha vector, exactly over Z:
    m alpha on the divisor block, -m alpha at the free points, and on each
    node incidence edge_sum, the tree solutions summed over the orbit."""
    col = []
    for name in lattice.var_names:
        if name[0] == "alpha":
            col.append(m * alpha[name[1]])
        else:
            _, comp, pt = name
            # divisor ids and graph ids live in disjoint namespaces
            col.append(-m * alpha[pt] if pt in alpha
                       else edge_sum.get((comp, pt), 0))
    return col


def _orbit_section(lattice: XiLattice, tree_orbit) -> IntMatrix:
    """The integer section Psi over Z of one orbit of tree masks, validated.

    Each edge value is linear in the vertex values, so every column of the
    difference basis goes through each tree's leaf order at once.  Psi is
    then proved a section over Z, hence at every level: it meets the
    constraints, phi after Psi is m B (m the orbit size), and it commutes
    with each generator."""
    graph, config = lattice.graph, lattice.config
    nedges, nverts = len(graph.edges), len(graph.vertex_ids)
    for t in tree_orbit:
        if t >> nedges:     # nonzero for a negative mask too
            raise ValueError(
                f"tree mask {t} has bits outside the graph's {nedges} edges")
        if t.bit_count() != nverts - 1:
            raise ValueError(
                f"{t.bit_count()} edges cannot span {nverts} vertices")
    # |V| - 1 edges that do not connect the vertices close a cycle, which
    # _leaf_order rejects
    leaf_orders = {t: _leaf_order(graph, tree_edges(graph, t))
                   for t in tree_orbit}
    if len(leaf_orders) != len(tree_orbit):
        raise ValueError("repeated tree in the orbit")
    if len(_tree_orbit_positions(graph, tree_orbit, ValueError(
            "orbit is not closed under the action"))) != 1:
        raise ValueError("the given trees split into several orbits")

    m = len(leaf_orders)
    div_ids = config.ids
    B = difference_basis(len(div_ids))
    alphas = [{d: B.entry(i, j) for i, d in enumerate(div_ids)}
              for j in range(B.cols)]
    # per vertex, its value in each column
    values = {c: [sum(al[d] for d in config.free_on(c)) for al in alphas]
              for c in graph.component_ids}
    for n in graph.nodes:
        anchored = config.anchored_at(n)
        values[n] = [-al[anchored] if anchored is not None else 0
                     for al in alphas]
    for j in range(B.cols):
        _check_balance(sum(values[c][j] for c in graph.component_ids)
                       - sum(values[n][j] for n in graph.nodes))

    sums: Dict[Edge, List[int]] = {}
    for steps, roots in leaf_orders.values():
        residual = dict(values)
        for v, e, other in steps:
            x = residual[v]
            residual[other] = [r - y for r, y in zip(residual[other], x)]
            sums[e] = [s + y for s, y in zip(sums[e], x)] if e in sums else x
        for v in roots:
            for r in residual[v]:
                _check_root(v, r)

    cols = [_psi_column(lattice, m, alpha,
                        {e: s[j] for e, s in sums.items()})
            for j, alpha in enumerate(alphas)]
    Psi = (IntMatrix.from_rows(list(map(list, zip(*cols))), len(cols))
           if cols else IntMatrix.zeros(len(lattice.var_names), 0))
    if not (lattice.constraint @ Psi).is_zero():
        raise VerificationFailed("psi columns violate the defining constraints")
    if (lattice.projection @ Psi) != B.scale(m):
        raise VerificationFailed("phi after psi is not multiplication by the orbit size")
    for P, R in zip(lattice.ambient_actions, lattice.zero_sum_actions):
        if R is None or Psi.take_rows(P) != (Psi @ R):
            raise VerificationFailed("psi does not commute with the action")
    return Psi


def build_psi(lattice: XiLattice, tree_orbit) -> IntMatrix:
    """The integer section Psi of lattice's phi for one orbit of spanning
    trees: phi after Psi multiplies by the orbit size, over Z.

    tree_orbit must be a full orbit of tree masks, as tree_orbits returns
    it, under the generated action group: every member a spanning tree of
    lattice's graph, closed under each generator, and reachable from any
    member.  The construction sums the balanced tree solutions over the
    orbit, which is what makes the result equivariant.
    Neither the orbit's validation, nor those integer solutions, nor their
    proof as a section over Z depends on a level: _orbit_section does all
    three once, and lattice keeps the proved Psi by the orbit as given (a
    failed orbit is not kept), so each level may reduce it mod l^s.
    """
    orbit = tuple(tree_orbit)
    # the orbit is the cache key, so its trees are checked to be masks
    # before it is hashed
    for t in orbit:
        if not isinstance(t, int):
            raise ValueError(f"tree {t!r} is not an edge bitmask")
    if orbit not in lattice.psi:
        lattice.psi[orbit] = _orbit_section(lattice, orbit)
    return lattice.psi[orbit]


@dataclass
class CombinedSplitting:
    m: int
    coefficients: Tuple[int, ...]
    orbit_sizes: Tuple[int, ...]
    psi: IntMatrix


def bezout_combine(lattice: XiLattice, orbits: Sequence,
                   m: int) -> CombinedSplitting:
    """Combine the build_psi sections of the smallest prefix of orbits
    whose sizes reach m, the gcd over all tree orbits, into one integer Psi
    with phi after Psi = m B, checked once over Z, hence at every level.
    A ValueError reports both gcds when all of orbits falls short.
    """
    if not orbits:
        raise ValueError("no orbits supplied")
    chosen, g = [], 0
    for orbit in orbits:
        chosen.append(orbit)
        g = gcd(g, len(orbit))
        if g == m:
            break
    sizes = [len(o) for o in chosen]
    if g != m:
        raise ValueError(
            f"orbit sizes {sizes} reach gcd {g}, but the full orbit gcd is "
            f"{m}; supply more orbits")

    # fold extended gcds into one coefficient list
    coeffs = [1]
    acc = sizes[0]
    for size in sizes[1:]:
        acc, x, y = _egcd(acc, size)
        coeffs = [ci * x for ci in coeffs] + [y]
    terms = [build_psi(lattice, o).scale(ci) for ci, o in zip(coeffs, chosen)]
    Psi = sum(terms[1:], terms[0])
    if lattice.projection @ Psi != difference_basis(
            len(lattice.config.ids)).scale(m):
        raise VerificationFailed("combined section misses the gcd multiple")
    return CombinedSplitting(m=m, coefficients=tuple(coeffs),
                             orbit_sizes=tuple(sizes), psi=Psi)


def _egcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t
