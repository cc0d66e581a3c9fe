"""Instance files for the graph-scale workload.

Each family has a fixed shape and size.  The seed only relabels vertex ids
and reorders components, nodes, edges, edge endpoints and action cycles,
so every seed costs about the same and has the same expected outcome.

Vertex ids are strings: components start with "c", nodes with "n".
"""

import json
import os
import random
from itertools import combinations

ELL, Q = 3, 5

# (name, tree_cap or None) in the order of one pass.  The first one is
# also the warm-up: it is cheap and reaches every suite's code.
INSTANCES = (
    ("banana8", None),
    ("k5", None),
    ("cycle16", None),
    ("k6-capped", 2000),
    ("bad-genus", None),
    ("zero-charpoly", None),
)


def subdivided_complete(n):
    """K_n with a node on every edge; the action rotates the n vertices."""
    comps = [(f"c{i}", 0) for i in range(n)]
    nodes, edges, perm = [], [], {}
    for i, j in combinations(range(n), 2):
        nodes.append(f"n{i}_{j}")
        edges += [(f"c{i}", f"n{i}_{j}"), (f"c{j}", f"n{i}_{j}")]
    for i in range(n):
        perm[f"c{i}"] = f"c{(i + 1) % n}"
    for i, j in combinations(range(n), 2):
        a, b = sorted(((i + 1) % n, (j + 1) % n))
        perm[f"n{i}_{j}"] = f"n{a}_{b}"
    return comps, nodes, edges, perm, []


def cycle(n):
    """n components in a ring joined by n nodes; the action rotates it."""
    comps = [(f"c{i}", 0) for i in range(n)]
    nodes = [f"n{i}" for i in range(n)]
    edges = []
    for i in range(n):
        edges += [(f"c{i}", f"n{i}"), (f"c{(i + 1) % n}", f"n{i}")]
    perm = {f"c{i}": f"c{(i + 1) % n}" for i in range(n)}
    perm.update({f"n{i}": f"n{(i + 1) % n}" for i in range(n)})
    return comps, nodes, edges, perm, []


def banana(k, charpoly=(1, -2, 5)):
    """Two components joined by k nodes; the genus-1 one carries charpoly.

    The action rotates the nodes and fixes both components.
    """
    comps = [("c0", 1), ("c1", 0)]
    nodes = [f"n{i}" for i in range(k)]
    edges = [(c, n) for n in nodes for c in ("c0", "c1")]
    perm = {f"n{i}": f"n{(i + 1) % k}" for i in range(k)}
    jac = [{"orbit_rep": "c0", "charpoly": list(charpoly), "q": Q, "f": 1}]
    return comps, nodes, edges, perm, jac


def _cycles(perm):
    out, seen = [], set()
    for start in perm:
        if start in seen or perm[start] == start:
            continue
        cyc, v = [], start
        while v not in seen:
            seen.add(v)
            cyc.append(v)
            v = perm[v]
        out.append(cyc)
    return out


def instance(shape, rng):
    """Instance-file dict for (comps, nodes, edges, perm, jacobians)."""
    comps, nodes, edges, perm, jac = shape
    ids = [c for c, _ in comps] + nodes
    fresh = rng.sample(range(100, 1000), len(ids))
    name = {v: v[0] + str(k) for v, k in zip(ids, fresh)}
    components = [{"id": name[c], "genus": g} for c, g in comps]
    node_ids = [name[n] for n in nodes]
    pairs = [[name[a], name[b]] for a, b in edges]
    for p in pairs:
        rng.shuffle(p)
    cycles = [[name[v] for v in cyc] for cyc in _cycles(perm)]
    for lst in (components, node_ids, pairs, cycles):
        rng.shuffle(lst)
    raw = {
        "schema": "devissage/1",
        "components": components,
        "nodes": node_ids,
        "edges": pairs,
        "action": [cycles],
        "ell": ELL,
        "q": Q,
    }
    if jac:
        raw["jacobians"] = [dict(j, orbit_rep=name[j["orbit_rep"]])
                            for j in jac]
    return raw


def build(name, rng):
    if name == "k5":
        return instance(subdivided_complete(5), rng)
    if name == "cycle16":
        return instance(cycle(16), rng)
    if name == "banana8":
        return instance(banana(8), rng)
    if name == "k6-capped":
        return instance(subdivided_complete(6), rng)
    if name == "bad-genus":
        # a genus that is not an integer: the contract says exit 4
        raw = instance(banana(2), rng)
        raw["components"][0]["genus"] = "two"
        return raw
    if name == "zero-charpoly":
        # a Weil polynomial with constant term 0: the contract says exit 4
        return instance(banana(2, charpoly=(1, -2, 0)), rng)
    raise KeyError(name)


def write_instances(directory, seed):
    """Write one file per instance; returns [(name, path, tree_cap)]."""
    os.makedirs(directory, exist_ok=True)
    rng = random.Random(seed)
    out = []
    for name, cap in INSTANCES:
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(build(name, rng), fh, indent=1)
            fh.write("\n")
        out.append((name, path, cap))
    return out
