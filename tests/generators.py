"""Test-side constructions that the check suites never use.

random_legal_graph draws the random dual graphs of the property sweeps,
and random_symmetric_graph those among them that carry an action;
matrix_power is the repeated-squaring power that the power-sum tests
compare traces against.
"""

from typing import Dict, List, Sequence, Tuple

from devissage.dualgraph import DualGraph
from devissage.exactlin import IntMatrix


def matrix_power(m: IntMatrix, k: int) -> IntMatrix:
    if k < 0:
        raise ValueError("negative matrix power")
    out = IntMatrix.identity(m.rows)
    base = m
    while k:
        if k & 1:
            out = out @ base
        base = base @ base
        k >>= 1
    return out


def random_legal_graph(rng, max_components: int = 4, max_extra_nodes: int = 3,
                       genus_pool: Sequence[int] = (0, 0, 0, 1, 2),
                       allow_action: bool = True,
                       generators: int = 1) -> DualGraph:
    """A random valid graph, optionally with a random nontrivial symmetry.

    Components are joined into a random tree by degree two nodes, then extra
    nodes add independent cycles, so the Betti number equals the number of
    extras by construction.  When allow_action is set, a nontrivial
    automorphism is searched for by brute force over genus preserving
    component permutations, and that many random nontrivial ones (repeats
    allowed) become the action's generators when any is found.
    """
    n1 = rng.randint(1, max_components)
    comps = [(f"c{i}", rng.choice(genus_pool)) for i in range(1, n1 + 1)]
    nodes: List[str] = []
    edges: List[Tuple[str, str]] = []
    counter = 0
    for i in range(2, n1 + 1):
        counter += 1
        node = f"n{counter}"
        other = f"c{rng.randint(1, i - 1)}"
        nodes.append(node)
        edges.append((f"c{i}", node))
        edges.append((other, node))
    if n1 >= 2:
        for _ in range(rng.randint(0, max_extra_nodes)):
            counter += 1
            node = f"n{counter}"
            a = rng.randint(1, n1)
            b = rng.randint(1, n1)
            while b == a:
                b = rng.randint(1, n1)
            nodes.append(node)
            edges.append((f"c{a}", node))
            edges.append((f"c{b}", node))
    graph = DualGraph(comps, nodes, edges)
    if not allow_action or rng.random() < 0.5:
        return graph

    autos = _component_automorphisms(graph)
    nontrivial = [a for a in autos if any(a[v] != v for v in a)]
    if not nontrivial:
        return graph
    picks = [nontrivial[rng.randrange(len(nontrivial))]
             for _ in range(generators)]
    return DualGraph(comps, nodes, edges, action=picks)


def random_symmetric_graph(rng, tries: int = 100, **kw) -> DualGraph:
    """random_legal_graph(rng, **kw) drawn again, up to tries times, until
    it carries an action: one draw in six to ten does, so a sweep that asks
    for symmetric cases gets them.  The last draw is returned either way."""
    for _ in range(tries):
        graph = random_legal_graph(rng, **kw)
        if graph.action:
            break
    return graph


def _component_automorphisms(graph: DualGraph) -> List[Dict[str, str]]:
    """Automorphisms obtained from genus preserving component permutations.

    Nodes are grouped by their unordered component pair; a component
    permutation extends to the nodes exactly when every group maps onto a
    group of equal size, and the extension pairs the sorted groups.
    """
    from itertools import permutations

    comp_ids = list(graph.component_ids)
    groups: Dict[Tuple[str, str], List[str]] = {}
    for n in graph.nodes:
        groups.setdefault(graph.node_components(n), []).append(n)
    for pair in groups:
        groups[pair].sort()
    out = []
    for perm in permutations(comp_ids):
        mapping = dict(zip(comp_ids, perm))
        if any(graph.genus(c) != graph.genus(mapping[c]) for c in comp_ids):
            continue
        node_map: Dict[str, str] = {}
        ok = True
        for pair, members in groups.items():
            image_pair = tuple(sorted((mapping[pair[0]], mapping[pair[1]])))
            targets = groups.get(image_pair)
            if targets is None or len(targets) != len(members):
                ok = False
                break
            node_map.update(zip(members, targets))
        if not ok:
            continue
        full = dict(mapping)
        full.update(node_map)
        try:
            DualGraph(graph.components, graph.nodes, graph.edges, action=[full])
        except ValueError:
            continue
        out.append(full)
    return out
