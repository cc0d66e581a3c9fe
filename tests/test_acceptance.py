"""End-to-end acceptance: every release gate in one module, one line each.

Each test prints a single "criterion NN ... PASS/FAIL" line (visible with
-s or on failure) and then asserts.  Budgeted criteria measure their own
wall time and fail when over budget.
"""

import json
import random
import re
import time
from itertools import product
from math import gcd


from devissage.cli import RunConfig, build_instance, load_raw, render_json, run
from devissage.dualgraph import (
    betti,
    bezout_combine,
    build_xi,
    default_divisors,
    difference_basis,
    dual_fixed_rank,
    fixed_rank,
    h1_lattice,
    invariant_rank,
    n_x,
    spanning_trees,
    tree_orbits,
    xi_lattice,
)
from devissage.exactlin import CoLGroup, LModule
from devissage.lprimary import (
    CoMap,
    box,
    box_maps,
    box_unit,
    co_direct_sum,
    left_exactness_probe,
    random_cogroup,
    tor_box,
    tors_level_check,
    torsbis_maps,
)
from devissage.sequences import (
    bhn_finite_field_report,
    lambda_structure,
    upsilon_structure,
)
from generators import random_legal_graph
from oracles import apply, rational_nullity, sympy_laplacian_cofactor
from test_lprimary import mult_ell_ses
from test_dualgraph import (
    banana as graph_banana,
    double_cycle,
    rotation_cycle,
    tree_pair as graph_tree_pair,
)
from test_sequences import (
    P125,
    anchored_banana_config,
    banana as seq_banana,
    instance as seq_instance,
    random_finite_lattice,
    tree_pair as seq_tree_pair,
    triangle,
)

G1_SWAP = "fixtures/g1_swap.json"
G2_TREE = "fixtures/g2_tree.json"


def _verdict(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num:2d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def _shipped_instances(max_level=4):
    out = []
    for path in (G1_SWAP, G2_TREE):
        cfg = RunConfig(input_path=path, max_level=max_level)
        out.append(build_instance(load_raw(path), cfg))
    return out


def test_criterion_01_box_calculus():
    started = time.perf_counter()
    rng = random.Random(101)
    ok = True
    for _ in range(100):
        ell = rng.choice((2, 3, 5))
        A = random_cogroup(rng, ell)
        unit = box_unit(ell)
        ok &= box(A, unit) == A and box(unit, A) == A
    for _ in range(100):
        ell = rng.choice((2, 3, 5))
        A = random_cogroup(rng, ell)
        B = random_cogroup(rng, ell)
        C = random_cogroup(rng, ell)
        ok &= box(box(A, B), C) == box(A, box(B, C))
        ok &= (box(co_direct_sum(A, B), C)
               == co_direct_sum(box(A, C), box(B, C)))
    for ell in (2, 3, 5):
        for n in range(1, 6):
            for m in range(1, 6):
                got = tor_box(CoLGroup(LModule(ell, 0, (n,))),
                              CoLGroup(LModule(ell, 0, (m,))))
                ok &= got == CoLGroup(LModule(ell, 0, (min(n, m),)))
    elapsed = time.perf_counter() - started
    ok &= elapsed < 5.0
    _verdict(1, f"box calculus ({elapsed:.2f}s)", ok)


def test_criterion_02_torsion_levels():
    started = time.perf_counter()
    rng = random.Random(202)
    ok = True
    for ell in (2, 3):
        for corank in (0, 1, 2):
            A = CoLGroup(LModule(ell, corank))
            for n in (1, 2, 3):
                for s in (1, 2, 3):
                    ok &= tors_level_check(A, n, s)
                for s in (1, 2):
                    for t in range(s + 1, 4):
                        ok &= torsbis_maps(A, s, t, n, rng=rng).commutes
    elapsed = time.perf_counter() - started
    ok &= elapsed < 30.0
    _verdict(2, f"torsion levels ({elapsed:.2f}s)", ok)


def test_criterion_03_non_right_exactness():
    ok = True
    for ell in (2, 3, 5):
        fin, unit, iota, pi = mult_ell_ses(ell)
        plain, boxed = left_exactness_probe(iota, pi, unit, fin)
        induced = box_maps(pi, CoMap.identity_on(fin))
        ok &= plain.surjective
        ok &= box(fin, unit) == fin
        ok &= induced.is_zero_map()
        ok &= boxed.left_exact and not boxed.surjective
        ok &= boxed.obstruction == fin
    _verdict(3, "multiplication by ell dies after box with Z/ell", ok)


def _vanishing_checks():
    """The CLI's vanishing suite on g1_swap.json, which has no jacobian, so
    it probes exactly WEIL_CATALOG on the criteria's grid; run starts from
    an empty memo.  Returns the checks by name and the run's wall time."""
    started = time.perf_counter()
    _, report = run(RunConfig(G1_SWAP, suites=("vanishing",)))
    elapsed = time.perf_counter() - started
    checks = report["suites"]["vanishing"]["checks"]
    return {c["name"]: c for c in checks}, elapsed


def test_criterion_04_vanishing_grid():
    checks, elapsed = _vanishing_checks()
    weight = checks["weight bounds hold for every fixture polynomial"]
    rule = checks["torsion h1 is nontrivial exactly on the boundary twist "
                  "j = -2r"]
    signs = checks["both boundary sign variants were exercised"]
    ok = all(c["verdict"] == "PASS" for c in (weight, rule, signs))
    ok &= weight["structure"] == "7 fixtures"
    ok &= rule["structure"] == "735 probes"
    minus_hits, plus_hits = map(int, re.fullmatch(
        r"j=-2r hit (\d+), j=\+2r hit (\d+)", signs["structure"]).groups())
    ok &= minus_hits > 0 and plus_hits > 0
    ok &= elapsed < 20.0
    _verdict(4, f"vanishing boundary rule ({elapsed:.2f}s)", ok)


def test_criterion_05_duality_crosscheck():
    checks, elapsed = _vanishing_checks()
    duality = checks["duality comparison agrees level by level"]
    ok = duality["verdict"] == "PASS"
    ok &= duality["structure"] == "735 comparisons"
    ok &= elapsed < 20.0
    _verdict(5, f"duality chain agrees level-wise ({elapsed:.2f}s)", ok)


def _cofactor(graph) -> int:
    verts = list(graph.vertex_ids)
    idx = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    lap = [[0] * n for _ in range(n)]
    for a, b in graph.edges:
        i, j = idx[a], idx[b]
        lap[i][i] += 1
        lap[j][j] += 1
        lap[i][j] -= 1
        lap[j][i] -= 1
    return sympy_laplacian_cofactor(lap)


def test_criterion_06_graph_invariants():
    rng = random.Random(606)
    ok = True
    for _ in range(50):
        g = random_legal_graph(rng)
        lattice = h1_lattice(g)
        ok &= betti(g) == lattice.rank
        ok &= len(spanning_trees(g)) == _cofactor(g)
        c = lattice.rank
        if lattice.action_matrices and c:
            rows = []
            for M in lattice.action_matrices:
                for k in range(c):
                    rows.append([M.entry(k, j) - (j == k) for j in range(c)])
            ok &= invariant_rank(lattice) == rational_nullity(rows, c)
        else:
            ok &= invariant_rank(lattice) == c
    pinned = graph_banana(swap=True)
    ok &= betti(pinned) == 1
    ok &= len(spanning_trees(pinned)) == 4
    ok &= gcd(*(len(o) for o in tree_orbits(pinned))) == 2
    ok &= invariant_rank(h1_lattice(pinned)) == 0
    _verdict(6, "graph invariants on 50 random graphs + pinned 4-cycle", ok)


def _splitting_ok(graph, config, ell, s, m_value, orbits) -> bool:
    mod = ell ** s
    # build_xi and bezout_combine raise on a false proof step
    xi = build_xi(xi_lattice(config), ell, s)
    combined = bezout_combine(xi.lattice, orbits, m_value)
    ok = combined.m == m_value
    # the integer section, reduced to level s
    section = combined.psi.mod(mod)
    ndiv = len(config.ids)
    basis = difference_basis(ndiv)
    if ndiv <= 4 and mod <= 27:
        # exhaustive: phi psi = m on every vector of the zero sum block
        for coords in product(range(mod), repeat=ndiv - 1):
            amb = apply(section, coords)
            proj = apply(xi.phi_ambient.matrix, amb)
            want = apply(basis, coords)
            ok &= all((p - m_value * w) % mod == 0
                      for p, w in zip(proj, want))
    if m_value % ell:
        inv = pow(m_value % mod, -1, mod)
        lhs = xi.phi_ambient.matrix @ section.scale(inv)
        ok &= (lhs - basis).mod(mod).is_zero()
    return ok


def test_criterion_07_splitting():
    fixtures = [
        (graph_banana(swap=False), None),
        (graph_banana(swap=True), None),
        (graph_tree_pair(), None),
        (double_cycle(), None),
        (rotation_cycle(), None),
    ]
    g_anchored = graph_banana(swap=True)
    fixtures.append((g_anchored, anchored_banana_config(g_anchored)))
    ok = True
    for g, config in fixtures:
        if config is None:
            config = default_divisors(g)
        orbits = tree_orbits(g)
        m_value = gcd(*(len(o) for o in orbits))
        for ell in (2, 3):
            for s in (1, 2, 3):
                if ell ** s > 27:
                    continue
                ok &= _splitting_ok(g, config, ell, s, m_value, orbits)
    rng = random.Random(707)
    for _ in range(25):
        g = random_legal_graph(rng)
        config = default_divisors(g)
        orbits = tree_orbits(g)
        ok &= _splitting_ok(g, config, 3, 1, gcd(*(len(o) for o in orbits)),
                            orbits)
    _verdict(7, "sections multiply by m and split when coprime", ok)


def test_criterion_08_structure():
    # genus labels of the shipped fixtures all lie in {0, 1}
    instances = _shipped_instances()
    instances.append(seq_instance(seq_banana(swap=False), ell=2))
    instances.append(seq_instance(seq_tree_pair(), ell=5, q=3))
    ok = True
    for inst in instances:
        ok &= all(g in (0, 1) for _, g in inst.graph.components)
        want_rank = n_x(inst.graph)
        for s in (1, 2, 3, 4):
            up = upsilon_structure(inst, s)
            ok &= up.ok
            ok &= up.structure["defect"] == 0
            observed = up.structure["observed"]
            ok &= observed == LModule(inst.ell, 0, (s,) * want_rank)
            lam = lambda_structure(inst, s)
            ok &= lam.ok
            ok &= lam.structure == LModule(inst.ell, 0, (s,))
            ok &= lam.twist == -1
    _verdict(8, "kernel object and boundary cokernel structure", ok)


def test_criterion_09_bhn_reports():
    started = time.perf_counter()
    instances = _shipped_instances()
    instances.append(seq_instance(seq_banana(swap=True), ell=2))
    instances.append(seq_instance(seq_banana(swap=False), ell=3))
    instances.append(seq_instance(triangle(), [("u", P125, 3)], ell=3))
    instances.append(seq_instance(triangle(), [("u", P125, 3)], ell=2))
    ok = True
    for inst in instances:
        rep = bhn_finite_field_report(inst)
        checks = dict(rep.checks)
        ok &= checks["h1 corank equals the fixed homology rank"]
        ok &= all(rec.f_killed_by_m for rec in rep.levels)
        ok &= checks["dual lattice fixed rank agrees"]
    rng = random.Random(909)
    nontrivial = 0
    for i in range(200):
        mat, order = random_finite_lattice(rng)
        mats = [mat, mat @ mat] if i % 4 == 0 else [mat]
        fixed = fixed_rank(mats, mat.rows)
        ok &= dual_fixed_rank(mats, mat.rows) == fixed
        ok &= 1 <= order <= 8 and mat.rows <= 6
        nontrivial += fixed < mat.rows
    ok &= nontrivial >= 40
    elapsed = time.perf_counter() - started
    ok &= elapsed < 300.0
    _verdict(9, f"bhn reports + 200 random lattices ({elapsed:.2f}s)", ok)


def test_criterion_10_determinism():
    suites = ("boxcalc", "torsionlevels", "graph", "splitting",
              "devissage", "bhn")
    cfg = RunConfig(input_path=G1_SWAP, suites=suites)
    code_a, rep_a = run(cfg)
    code_b, rep_b = run(RunConfig(input_path=G1_SWAP, suites=suites))
    ok = code_a == code_b == 0
    ok &= render_json(rep_a) == render_json(rep_b)
    ok &= json.loads(render_json(rep_a))["verdict"] == "PASS"
    _verdict(10, "byte-identical reports for identical config and seed", ok)
