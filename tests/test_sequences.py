"""Finite-level sequence assembly: instances, exactness, structure, reports."""

import os
import random
from itertools import product
from math import gcd

import pytest
import sympy

from devissage import exactlin, sequences
from devissage.cli import RunConfig, build_instance, load_raw
from devissage.dualgraph import (
    DivisorConfig,
    DualGraph,
    build_xi,
    default_divisors,
    dual_fixed_rank,
    fixed_rank,
    h1_lattice,
    tree_orbits,
    xi_lattice,
)
from devissage.errors import (
    EnumerationCapExceeded,
    InvalidInstance,
    VerificationFailed,
)
from devissage.exactlin import (
    PRIME_BOUND,
    IntMatrix,
    LMap,
    LModule,
    SmithForm,
    cokernel,
)
from devissage.lprimary import FrobObject
from devissage.procyclic import WEIL_CATALOG, CharPoly, h1, torsion_frob
from devissage.sequences import (
    BhnReport,
    SingularityInstance,
    bhn_finite_field_report,
    devissage,
    induced_jacobian_block,
    lambda_structure,
    upsilon_structure,
)
from generators import random_legal_graph
from oracles import (
    Complex,
    apply,
    exactness_check,
    incidence_layout_rows,
    per_level_xi,
    quotient_structure,
    rational_nullity,
    split_sequence,
    subgroup_closure,
)

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
P5 = CharPoly((1, -2, 5), 5)
P25 = CharPoly((1, -2, 25), 25)
P125 = CharPoly((1, -2, 125), 125)
QUARTIC5 = CharPoly((1, -2, 10, -10, 25), 5)


def banana(swap=True, genus=(0, 0)):
    return DualGraph(
        components=(("u", genus[0]), ("v", genus[1])),
        nodes=("a", "b"),
        edges=(("u", "a"), ("u", "b"), ("v", "a"), ("v", "b")),
        action=([{"a": "b", "b": "a"}] if swap else ()),
    )


def tree_pair():
    return DualGraph(
        components=(("A", 0), ("B", 0)),
        nodes=("n",),
        edges=(("A", "n"), ("B", "n")),
        action=(),
    )


def comp_swap(genus=(1, 1)):
    """Frobenius exchanging the two components; nodes stay fixed."""
    return DualGraph(
        components=(("u", genus[0]), ("v", genus[1])),
        nodes=("a", "b"),
        edges=(("u", "a"), ("u", "b"), ("v", "a"), ("v", "b")),
        action=[{"u": "v", "v": "u"}],
    )


def triangle():
    """Three genus-1 components in a cycle, rotated by Frobenius."""
    return DualGraph(
        components=(("u", 1), ("v", 1), ("w", 1)),
        nodes=("n1", "n2", "n3"),
        edges=(("u", "n1"), ("u", "n3"), ("v", "n1"), ("v", "n2"),
               ("w", "n2"), ("w", "n3")),
        action=[{"u": "v", "v": "w", "w": "u",
                 "n1": "n2", "n2": "n3", "n3": "n1"}],
    )


def anchored_banana_config(graph):
    return DivisorConfig(
        graph,
        (("d_a", ("node", "a")), ("d_b", ("node", "b")),
         ("p_u", ("free", "u")), ("p_v", ("free", "v"))),
    )


def instance(graph, jacobians=(), ell=3, q=5, **kw):
    return SingularityInstance(default_divisors(graph), jacobians,
                               ell=ell, q=q, **kw)


def passed(rep):
    """Every check of a bhn report holds."""
    return all(ok for _, ok in rep.checks)


def free_level(ell, s, n):
    return LModule(ell, 0, (s,) * n)


def random_finite_lattice(rng, max_rank=6, max_order=8):
    """A unimodular integer matrix of finite order, conjugated off-diagonal.

    Signed permutation matrices exhaust the finite cyclic subgroups we
    need; a shear conjugation hides the monomial shape without changing
    the group generated.
    """
    n = rng.randint(1, max_rank)
    while True:
        perm = list(range(n))
        rng.shuffle(perm)
        raw = [[0] * n for _ in range(n)]
        for j in range(n):
            raw[perm[j]][j] = rng.choice((1, -1))
        M = sympy.Matrix(raw)
        acc, order = M, 1
        while acc != sympy.eye(n) and order <= max_order:
            acc = acc * M
            order += 1
        if acc == sympy.eye(n) and order <= max_order:
            break
    U = sympy.eye(n)
    for _ in range(3):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        E = sympy.eye(n)
        E[i, j] = rng.choice((-2, -1, 1, 2))
        U = U * E
    C = U * M * U.inv()
    rows = [[int(C[i, j]) for j in range(n)] for i in range(n)]
    return IntMatrix.from_rows(rows, n), order


class TestInstanceValidation:
    """Every invariant of the instance data is enforced at construction."""

    def test_minimal_instances_build(self):
        inst = instance(tree_pair())
        assert inst.jacobians == ()
        assert inst.is_finite_field_mode
        assert inst.jacobian_rank() == 0

    def test_jacobian_entries_accepted(self):
        inst = instance(banana(swap=False, genus=(1, 0)), [("u", P5, 1)])
        assert inst.jacobians == (("u", P5, 1),)
        assert inst.jacobian_rank() == 2

    def test_orbit_entry_with_extension_degree(self):
        inst = instance(comp_swap(), [("u", P25, 2)])
        assert inst.jacobian_rank() == 4
        assert inst.is_finite_field_mode

    def test_nonprime_ell_rejected(self):
        with pytest.raises(InvalidInstance):
            instance(tree_pair(), ell=6)

    def test_undecided_ell_rejected(self):
        with pytest.raises(InvalidInstance, match=str(PRIME_BOUND)):
            instance(tree_pair(), ell=PRIME_BOUND)
        with pytest.raises(InvalidInstance, match=r"^l = 9 is not prime$"):
            instance(tree_pair(), ell=9)

    def test_ell_dividing_q_rejected(self):
        with pytest.raises(InvalidInstance):
            instance(tree_pair(), ell=5, q=5)

    def test_bad_q_rejected(self):
        with pytest.raises(InvalidInstance):
            instance(tree_pair(), q=1)

    def test_level_precision_ordering(self):
        # no working precision bounds the level from above
        assert instance(tree_pair(), max_level=9).max_level == 9
        with pytest.raises(InvalidInstance):
            instance(tree_pair(), max_level=0)

    def test_unknown_component_rejected(self):
        with pytest.raises(InvalidInstance, match="unknown component"):
            instance(banana(swap=False, genus=(1, 0)), [("zz", P5, 1)])

    def test_double_entry_per_orbit_rejected(self):
        with pytest.raises(InvalidInstance, match="orbit"):
            instance(comp_swap(), [("u", P25, 2), ("v", P25, 2)])

    def test_genus_zero_entry_rejected(self):
        with pytest.raises(InvalidInstance, match="genus 0"):
            instance(banana(swap=False), [("u", P5, 1)])

    def test_degree_f_must_match_orbit_size(self):
        with pytest.raises(InvalidInstance, match="extension degree"):
            instance(comp_swap(), [("u", P25, 1)])

    def test_polynomial_degree_must_match_genus(self):
        with pytest.raises(InvalidInstance, match="degree"):
            instance(banana(swap=False, genus=(1, 0)), [("u", QUARTIC5, 1)])

    def test_polynomial_base_must_be_q_to_f(self):
        with pytest.raises(InvalidInstance, match="q\\^f"):
            instance(banana(swap=False, genus=(1, 0)), [("u", P25, 1)])

    def test_weil_failure_rejected(self):
        # functional equation holds for any trace, but 7 > 2*sqrt(5)
        bad = CharPoly((1, -7, 5), 5)
        with pytest.raises(InvalidInstance, match="not pure of weight one"):
            instance(banana(swap=False, genus=(1, 0)), [("u", bad, 1)])

    def test_missing_entry_for_positive_genus(self):
        with pytest.raises(InvalidInstance, match="no jacobian entry"):
            instance(banana(swap=False, genus=(1, 0)))

    def test_jacobians_need_single_frobenius(self):
        g = DualGraph(
            components=(("u", 1), ("v", 1)),
            nodes=("a", "b"),
            edges=(("u", "a"), ("u", "b"), ("v", "a"), ("v", "b")),
            action=[{"u": "v", "v": "u"}, {"a": "b", "b": "a"}],
        )
        with pytest.raises(InvalidInstance, match="single Frobenius"):
            instance(g, [("u", P25, 2)])

    def test_two_generator_genus_zero_instance_allowed(self):
        g = DualGraph(
            components=(("u", 0), ("v", 0)),
            nodes=("a", "b"),
            edges=(("u", "a"), ("u", "b"), ("v", "a"), ("v", "b")),
            action=[{"a": "b", "b": "a"}, {"u": "v", "v": "u"}],
        )
        inst = instance(g)
        assert not inst.is_finite_field_mode

    def test_type_errors(self):
        with pytest.raises(TypeError):
            SingularityInstance("nope", [], ell=3, q=5)
        with pytest.raises(TypeError):
            instance(banana(swap=False, genus=(1, 0)), [("u", "poly", 1)])


class TestXiAgainstPerLevelRoute:
    """Xi read from one Smith form per instance against the per-level route
    build_xi took before (oracles.per_level_xi), at every level 1..4."""

    @staticmethod
    def _compare(inst):
        for s in range(1, 5):
            xi = inst.xi(s)
            old = per_level_xi(inst.graph, inst.divisors, inst.ell, s)
            assert xi.module == old.module
            assert xi.phi_kernel.domain == old.phi_kernel.domain
            cycles = xi.inclusion.matrix @ xi.h1_inclusion.matrix
            assert (cycles - old.cycle_embedding).mod(inst.ell ** s).is_zero()
            assert lambda_structure(inst, s).structure == old.lambda_cokernel

    def test_pinned_graphs(self):
        cases = [instance(g, ell=ell)
                 for g in (tree_pair(), banana(swap=False), banana(),
                           comp_swap(genus=(0, 0)))
                 for ell in (2, 3)]
        cases.append(SingularityInstance(
            anchored_banana_config(banana()), [], ell=2, q=5))
        for name in ("g1_swap.json", "g2_tree.json"):
            path = os.path.join(FIXTURES, name)
            cases.append(build_instance(load_raw(path),
                                        RunConfig(input_path=path)))
        for inst in cases:
            self._compare(inst)

    def test_random_graphs(self):
        rng = random.Random(151)
        for _ in range(12):
            g = random_legal_graph(rng, genus_pool=(0,))
            ell, q = rng.choice(((2, 5), (3, 5), (5, 7)))
            self._compare(instance(g, ell=ell, q=q))


class TestOwnedGraphObjects:
    """The instance's graph objects equal a fresh library computation."""

    def test_match_the_library_functions(self):
        rng = random.Random(77)
        for _ in range(25):
            g = random_legal_graph(rng, genus_pool=(0,))
            ell, q = rng.choice(((2, 5), (3, 5), (5, 7)))
            inst = instance(g, ell=ell, q=q)
            assert inst.orbits == tree_orbits(g)
            assert inst.m == gcd(*(len(o) for o in tree_orbits(g)))
            assert inst.lattice == h1_lattice(g)
            for s in (1, 2):
                assert inst.xi(s) == build_xi(xi_lattice(inst.divisors),
                                              ell, s)
                assert inst.xi(s) is inst.xi(s)

    def test_jacobian_blocks_built_once(self, monkeypatch):
        calls = []
        real = sequences.induced_jacobian_block

        def counted(poly, f, ell, q):
            calls.append((poly, f, ell, q))
            return real(poly, f, ell, q)

        monkeypatch.setattr(sequences, "induced_jacobian_block", counted)
        inst = instance(triangle(), [("u", P125, 3)], ell=2)
        for s in range(1, 5):
            devissage(inst, s)
        bhn_finite_field_report(inst)
        assert calls == [(P125, 3, 2, 5)]
        assert inst.jacobian_blocks == (real(P125, 3, 2, 5),)

    def test_cap_is_the_instance_cap(self):
        with pytest.raises(EnumerationCapExceeded,
                           match="^4 spanning trees exceed"):
            bhn_finite_field_report(instance(banana(), tree_cap=3))
        assert bhn_finite_field_report(
            instance(banana(), tree_cap=4)).m_value == 2


class TestInducedBlock:
    """Induction of a jacobian Frobenius along the orbit of its component."""

    def test_degree_one_is_plain_torsion_frobenius(self):
        fo = induced_jacobian_block(P5, 1, 3, 5)
        ext = torsion_frob(P5, 3)
        assert fo.matrix == ext.matrix
        assert fo.qpow == ext.qpow and fo.q == 5

    def test_degree_two_cycle_shape(self):
        fo = induced_jacobian_block(P25, 2, 3, 5)
        wrap = torsion_frob(P25, 3).matrix
        assert fo.matrix.rows == 4
        for a in range(2):
            for b in range(2):
                assert fo.matrix.entry(a, 2 + b) == wrap.entry(a, b)
                assert fo.matrix.entry(2 + a, b) == (1 if a == b else 0)
                assert fo.matrix.entry(a, b) == 0
                assert fo.matrix.entry(2 + a, 2 + b) == 0

    def test_fth_power_restores_extension_frobenius(self):
        fo = induced_jacobian_block(P125, 3, 2, 5)
        wrap = torsion_frob(P125, 2).matrix
        B3 = fo.matrix @ fo.matrix @ fo.matrix
        for i in range(6):
            for j in range(6):
                want = wrap.entry(i % 2, j % 2) if i // 2 == j // 2 else 0
                assert B3.entry(i, j) == want
        assert fo.qpow == torsion_frob(P125, 2).qpow

    def test_cohomology_vanishes_by_both_routes(self):
        # weight one keeps every eigenvalue off 1, over the extension and
        # after induction alike
        for poly, f, ell in ((P5, 1, 3), (P25, 2, 3), (P125, 3, 2)):
            ind = induced_jacobian_block(poly, f, ell, 5)
            ext = torsion_frob(poly, ell)
            assert h1(ext).dual_module.is_trivial
            assert h1(ind).dual_module.is_trivial

    def test_catalog_vanishing(self):
        for poly in WEIL_CATALOG:
            for ell in (2, 3, 7):
                if poly.q % ell == 0:
                    continue
                assert h1(torsion_frob(poly, ell)).dual_module.is_trivial


class TestExactnessCheck:
    """The homology route of tests/oracles.py that the split-sequence
    verdicts are checked against."""

    def test_identity_is_exact(self):
        Z3 = free_level(3, 1, 1)
        rep = exactness_check(Complex((Z3, Z3), (LMap.identity_on(Z3),)))
        assert rep.verdict == "EXACT"
        assert all(h.is_trivial for h in rep.homology)
        assert rep.is_complex

    def test_zero_map_has_homology_both_ends(self):
        Z3 = free_level(3, 1, 1)
        rep = exactness_check(
            Complex((Z3, Z3), (LMap(Z3, Z3, IntMatrix.zeros(1, 1)),)))
        assert rep.verdict == "HOMOLOGY"
        assert rep.homology == (Z3, Z3)
        assert rep.position_verdicts == ("homology Z/3^1", "homology Z/3^1")

    def test_noncomplex_reported(self):
        Z3 = free_level(3, 1, 2)
        one = LMap.identity_on(Z3)
        rep = exactness_check(Complex((Z3, Z3, Z3), (one, one)))
        assert not rep.is_complex
        assert rep.verdict == "FAIL" and rep.homology == ()

    def test_endpoint_mismatch_raises(self):
        Z3 = free_level(3, 1, 1)
        Z9 = free_level(3, 2, 1)
        with pytest.raises(ValueError):
            exactness_check(Complex((Z3, Z3), (LMap.identity_on(Z9),)))
        with pytest.raises(ValueError):
            exactness_check(Complex((Z3, Z3), ()))
        with pytest.raises(ValueError):
            exactness_check(Complex((), ()))

    def test_residue_kernel_sequence_is_exact(self):
        # cycle level -> assembled kernel -> zero-sum block, with the last
        # divisor coordinate dropped (determined by the zero sum)
        g = banana(swap=True)
        xi = build_xi(xi_lattice(default_divisors(g)), 3, 2)
        ndiv = 2
        tail = free_level(3, 2, ndiv - 1)
        proj = LMap(xi.module, tail,
                    xi.phi.matrix.take_rows(list(range(ndiv - 1))))
        head = free_level(3, 2, 1)
        rep = exactness_check(
            Complex((head, xi.module, tail), (xi.h1_inclusion, proj)))
        assert rep.verdict == "EXACT"

    def test_residue_kernel_sequence_anchored(self):
        g = banana(swap=True)
        xi = build_xi(xi_lattice(anchored_banana_config(g)), 2, 2)
        ndiv = 4
        tail = free_level(2, 2, ndiv - 1)
        proj = LMap(xi.module, tail,
                    xi.phi.matrix.take_rows(list(range(ndiv - 1))))
        rep = exactness_check(
            Complex((free_level(2, 2, 1), xi.module, tail),
                    (xi.h1_inclusion, proj)))
        assert rep.verdict == "EXACT"


class TestUpsilonStructure:
    def test_tree_instance_trivial(self):
        rep = upsilon_structure(instance(tree_pair()), 1)
        assert rep.ok
        assert rep.structure["observed"].is_trivial
        assert rep.structure["predicted"].is_trivial
        assert rep.structure["defect"] == 0

    def test_cycle_only_instance(self):
        inst = instance(banana(swap=False))
        for s in (1, 2, 3, 4):
            rep = upsilon_structure(inst, s)
            assert rep.ok
            assert rep.structure["observed"] == free_level(3, s, 1)
            assert rep.structure["predicted"] == free_level(3, s, 1)
            assert rep.structure["defect"] == 0

    def test_swap_instance_equivariant(self):
        rep = upsilon_structure(instance(banana(swap=True)), 3)
        assert rep.ok

    def test_genus_one_defect_reported_and_failed(self):
        # the jacobian block carries two divisible lines per unit of genus,
        # one more than the genus-count prediction; the deviation is
        # reported as a defect and the verdict is a fail, not a fudge
        inst = instance(banana(swap=False, genus=(1, 0)), [("u", P5, 1)])
        for s in (1, 2):
            rep = upsilon_structure(inst, s)
            assert not rep.ok
            assert rep.structure["observed"] == free_level(3, s, 3)
            assert rep.structure["predicted"] == free_level(3, s, 2)
            assert rep.structure["defect"] == 1

    def test_orbit_instance_defect(self):
        rep = upsilon_structure(instance(comp_swap(), [("u", P25, 2)]), 1)
        assert not rep.ok
        assert rep.structure["observed"] == free_level(3, 1, 5)
        assert rep.structure["defect"] == 2

    def test_level_bounds(self):
        # a level above max_level is computed: no working precision caps it
        inst = instance(tree_pair(), max_level=2)
        assert upsilon_structure(inst, 9).ok
        with pytest.raises(ValueError):
            upsilon_structure(inst, 0)


class TestLambdaStructure:
    def test_tree_levels(self):
        inst = instance(tree_pair())
        for s in (1, 2, 3):
            rep = lambda_structure(inst, s)
            assert rep.ok
            assert rep.structure == free_level(3, s, 1)
            assert rep.twist == -1

    def test_cycle_graph(self):
        rep = lambda_structure(instance(banana(swap=False)), 2)
        assert rep.ok
        assert rep.structure == free_level(3, 2, 1)
        assert rep.frobenius_trivial_untwisted == ()

    def test_action_twisted_instance(self):
        rep = lambda_structure(instance(banana(swap=True)), 2)
        assert rep.ok
        assert rep.structure == free_level(3, 2, 1)
        assert rep.frobenius_trivial_untwisted == (True,)

    def test_anchored_divisors(self):
        g = banana(swap=True)
        inst = SingularityInstance(anchored_banana_config(g), [],
                                   ell=3, q=5)
        rep = lambda_structure(inst, 2)
        assert rep.ok
        assert rep.structure == free_level(3, 2, 1)

    def test_brute_force_cokernel_tree(self):
        # independent route: quotient of the point block by the closure of
        # all single-component difference moves, counted elementwise
        g = tree_pair()
        cfg = default_divisors(g)
        points = sorted(("n",) + ("p_A", "p_B"))
        orders = (2,) * len(points)
        gens = []
        for comp in ("A", "B"):
            mine = sorted(tuple(g.component_nodes(comp)) + cfg.free_on(comp))
            for p in mine:
                for q in mine:
                    if p != q:
                        vec = [0] * len(points)
                        vec[points.index(p)] = 1
                        vec[points.index(q)] = -1
                        gens.append(tuple(vec))
        sub = subgroup_closure(orders, gens)
        assert quotient_structure(2, orders, sub) == (1,)
        rep = lambda_structure(instance(g, ell=2), 1)
        assert rep.structure.torsion_exponents == (1,)

    def test_brute_force_cokernel_swap(self):
        g = banana(swap=True)
        cfg = default_divisors(g)
        points = sorted(("a", "b", "p_u", "p_v"))
        orders = (3,) * 4
        gens = []
        for comp in ("u", "v"):
            mine = sorted(tuple(g.component_nodes(comp)) + cfg.free_on(comp))
            for p in mine:
                for q in mine:
                    if p != q:
                        vec = [0] * 4
                        vec[points.index(p)] = 1
                        vec[points.index(q)] = -1
                        gens.append(tuple(vec))
        sub = subgroup_closure(orders, gens)
        assert quotient_structure(3, orders, sub) == (1,)
        rep = lambda_structure(instance(g), 1)
        assert rep.structure.torsion_exponents == (1,)

    def test_incidence_maps_match_the_incidence_layout(self):
        # differential: the y-column blocks of Xi's constraints, which Lambda
        # reads at every level, against the incidence layout built directly
        # from the graph and the divisors
        rng = random.Random(17)
        graphs = [tree_pair(), banana(swap=False), banana(), comp_swap(),
                  triangle()] + [random_legal_graph(rng) for _ in range(20)]
        cases = [(g, default_divisors(g)) for g in graphs]
        cases.append((banana(), anchored_banana_config(banana())))
        for g, cfg in cases:
            comp_rows, point_rows = incidence_layout_rows(g, cfg)
            n = len(comp_rows[0])
            per_comp_sum, to_points = xi_lattice(cfg).incidence_blocks()
            assert per_comp_sum == IntMatrix.from_rows(comp_rows, n)
            assert to_points == IntMatrix.from_rows(point_rows, n)


class TestDevissage:
    def test_cycle_instance(self):
        outer, inner = devissage(instance(banana(swap=False)), 2)
        assert outer.ok and inner.ok
        assert outer.structure["cycle_block_matches_residue_kernel"]
        assert outer.structure["divisor_block_matches_projection_image"]

    def test_tree_collapses_to_divisor_block(self):
        outer, inner = devissage(instance(tree_pair()), 2)
        assert outer.ok
        assert outer.terms[0].is_trivial
        assert outer.terms[1] == free_level(3, 2, 1)
        assert outer.terms[2] == free_level(3, 2, 1)
        assert inner.structure["observed"].is_trivial

    def test_anchored_swap_equivariance(self):
        g = banana(swap=True)
        inst = SingularityInstance(anchored_banana_config(g), [],
                                   ell=3, q=5)
        outer, inner = devissage(inst, 2)
        assert outer.ok and inner.ok
        assert [t.num_gens for t in outer.terms] == [1, 4, 3]

    def test_builds_no_twisted_jacobian_action(self, monkeypatch):
        # both split sequences are equivariant by construction, so no
        # twisted Frobenius is built to check it
        inst = instance(triangle(), [("u", P125, 3)], ell=2)
        assert inst.jacobian_blocks
        calls = []
        real = FrobObject.twist

        def counted(self, r):
            calls.append(r)
            return real(self, r)

        monkeypatch.setattr(FrobObject, "twist", counted)
        for s in range(1, 5):
            devissage(inst, s)
        assert calls == []

    def test_random_instances_exact(self):
        # ten random genus-zero instances, both sequences, levels to 3
        rng = random.Random(1234)
        pairs = ((2, 5), (3, 5), (5, 7))
        for _ in range(10):
            g = random_legal_graph(rng, genus_pool=(0,))
            ell, q = pairs[rng.randrange(3)]
            s = rng.randint(1, 3)
            inst = instance(g, ell=ell, q=q)
            outer, inner = devissage(inst, s)
            assert outer.ok
            assert inner.ok


class TestSplitSequencesAgainstOracle:
    """The assembled sequences are exact by construction; the oracle builds
    their identity-block maps and proves it through homology, and the
    ok flags must equal that route combined with the same structure checks."""

    def _compare(self, inst):
        c, jrank = inst.lattice.rank, inst.jacobian_rank()
        ndiv = len(inst.divisors.ids)
        inner_flags = []
        for s in range(1, inst.max_level + 1):
            outer, inner = devissage(inst, s)
            ref_inner = exactness_check(split_sequence(inst.ell, s, jrank, c))
            ref_outer = exactness_check(
                split_sequence(inst.ell, s, jrank + c, ndiv - 1))
            assert ref_inner.verdict == ref_outer.verdict == "EXACT"
            assert inner.terms == ref_inner.terms
            assert outer.terms == ref_outer.terms
            assert upsilon_structure(inst, s).ok == inner.ok
            inner_ok = (ref_inner.verdict == "EXACT"
                        and inner.structure["defect"] == 0)
            st = outer.structure
            outer_ok = (ref_outer.verdict == "EXACT"
                        and st["cycle_block_matches_residue_kernel"]
                        and st["divisor_block_matches_projection_image"])
            assert inner.ok == inner_ok
            assert outer.ok == outer_ok
            inner_flags.append((inner.ok, inner.structure["defect"]))
        return inner_flags

    def test_shipped_fixtures(self):
        for name in ("g1_swap.json", "g2_tree.json"):
            path = os.path.join(FIXTURES, name)
            inst = build_instance(load_raw(path), RunConfig(input_path=path))
            assert self._compare(inst) == [(True, 0)] * inst.max_level

    def test_random_weil_jacobian_instances(self):
        # genus-one components carry a weight-one jacobian over q^f, which
        # overshoots the genus-count prediction: upsilon fails with a defect
        rng = random.Random(2013)
        defects, degrees = [], set()
        for _ in range(12):
            g = random_legal_graph(rng, genus_pool=(0, 0, 1))
            jacobians = [(orb[0], CharPoly((1, -2, 5 ** len(orb)), 5 ** len(orb)),
                          len(orb))
                         for orb in g.component_orbits() if g.genus(orb[0])]
            degrees.update(f for _, _, f in jacobians)
            inst = instance(g, jacobians, ell=rng.choice((2, 3)), max_level=3)
            for ok, defect in self._compare(inst):
                assert (not ok) == (defect != 0)
                defects.append(defect)
        assert any(d > 0 for d in defects) and 0 in defects
        assert max(degrees) > 1


class TestOnoCheck:
    """The fixed rank of a lattice equals the fixed rank of its dual under
    the contragredient action (Ono)."""

    def test_rank_one_negation(self):
        neg = IntMatrix.from_rows([[-1]], 1)
        assert fixed_rank([neg], 1) == 0 and dual_fixed_rank([neg], 1) == 0

    def test_rank_one_trivial(self):
        one = [IntMatrix.identity(1)]
        assert fixed_rank(one, 1) == dual_fixed_rank(one, 1) == 1

    def test_node_swap_lattice(self):
        lat = h1_lattice(banana(swap=True))
        assert lat.rank == 1
        assert fixed_rank(lat.action_matrices, lat.rank) == 0
        assert dual_fixed_rank(lat.action_matrices, lat.rank) == 0

    def test_empty_generator_list(self):
        assert fixed_rank([], 3) == 3 and dual_fixed_rank([], 3) == 3

    def test_bad_generators_rejected(self):
        with pytest.raises(ValueError):
            dual_fixed_rank([IntMatrix.from_rows([[2]], 1)], 1)
        with pytest.raises(ValueError):
            dual_fixed_rank([IntMatrix.zeros(1, 2)], 1)

    def test_klein_four_signs(self):
        gens = [IntMatrix.diagonal((1, -1)), IntMatrix.diagonal((-1, 1))]
        assert fixed_rank(gens, 2) == dual_fixed_rank(gens, 2) == 0

    def test_wrong_inverse_solve_raises(self, monkeypatch):
        monkeypatch.setattr(exactlin, "solve_integer", lambda A, B: B)
        with pytest.raises(VerificationFailed):
            dual_fixed_rank([IntMatrix.from_rows([[0, 1], [1, 1]], 2)], 2)

    def test_shear_conjugated_negation(self):
        # -1 conjugated by a shear is no longer monomial; ranks unchanged
        m = IntMatrix.from_rows([[-1, -2], [0, 1]], 2)
        assert fixed_rank([m], 2) == 1 and dual_fixed_rank([m], 2) == 1

    def test_random_lattices_match(self):
        rng = random.Random(20240)
        nontrivial = 0
        for i in range(200):
            m, order = random_finite_lattice(rng)
            gens = [m] if i % 4 else [m, m @ m]
            fixed = fixed_rank(gens, m.rows)
            dual = dual_fixed_rank(gens, m.rows)
            assert dual == fixed
            n = m.rows
            stack = [list(row) for g in gens
                     for row in (g - IntMatrix.identity(n)).data]
            assert fixed == rational_nullity(stack, n)
            sm = sympy.Matrix([list(row) for row in m.data])
            contra = sm.inv().T
            cstack = [[int(x) for x in (contra - sympy.eye(n)).row(k)]
                      for k in range(n)]
            if len(gens) == 2:
                c2 = contra * contra
                cstack += [[int(x) for x in (c2 - sympy.eye(n)).row(k)]
                           for k in range(n)]
            assert dual == rational_nullity(cstack, n)
            if fixed < n:
                nontrivial += 1
        assert nontrivial >= 50


class TestBhnReport:
    def test_node_swap_smallest_instance(self):
        rep = bhn_finite_field_report(instance(banana(swap=True)))
        assert passed(rep)
        assert rep.rho == 0 and rep.m_value == 2 and rep.h1_corank == 0
        checks = dict(rep.checks)
        assert checks["h1 corank equals the fixed homology rank"]
        assert checks["dual lattice fixed rank agrees"]
        for lv in rep.levels:
            assert lv.h1_structure.is_trivial
            assert lv.f_structure.is_trivial
            assert lv.f_killed_by_m and lv.level_routes_agree

    def test_trivial_action_rank_one(self):
        rep = bhn_finite_field_report(instance(banana(swap=False)))
        assert passed(rep)
        assert rep.rho == 1 and rep.h1_corank == 1
        for lv in rep.levels:
            assert lv.h1_structure == free_level(3, lv.level, 1)
            assert lv.f_structure.is_trivial

    def test_tree_degenerates(self):
        rep = bhn_finite_field_report(instance(tree_pair()))
        assert passed(rep)
        assert rep.rho == 0 and rep.h1_corank == 0
        assert all(lv.h1_structure.is_trivial for lv in rep.levels)

    def test_even_prime_f_term_frozen(self):
        # at l = 2 the node swap leaves a kernel line: H^1(A) = Z/2 and its
        # image in the residue side dies, so F is the whole Z/2, and the
        # tree-orbit gcd 2 kills it on the nose
        rep = bhn_finite_field_report(instance(banana(swap=True), ell=2))
        assert passed(rep)
        for lv in rep.levels:
            assert lv.h1_structure == LModule(2, 0, (1,))
            assert lv.xi_h1_structure == LModule(2, 0, (lv.level,))
            assert lv.f_structure == LModule(2, 0, (1,))
            assert lv.f_killed_by_m

    def test_f_term_brute_confirmation(self):
        # independent route for F = Z/2 at level 1: the cycle generator
        # must become a coboundary inside the assembled kernel, i.e.
        # (sigma - 1)w = cycle column for some w in the kernel module
        g = banana(swap=True)
        xi = build_xi(xi_lattice(default_divisors(g)), 2, 1)
        rows = xi.lattice.ambient_actions[0]
        target = [row[0] for row in xi.lattice.cycles.data]
        hits = []
        for z in product(range(2), repeat=xi.module.num_gens):
            w = apply(xi.inclusion.matrix, z)
            moved = [w[i] for i in rows]
            if all((a - b - t) % 2 == 0
                   for a, b, t in zip(moved, w, target)):
                hits.append(z)
        assert hits

    def test_rotation_f_term_at_dividing_prime(self):
        # m = 3; at l = 3 the obstruction is exactly Z/3 at every level
        rep = bhn_finite_field_report(
            instance(triangle(), [("u", P125, 3)], ell=3))
        assert passed(rep)
        assert rep.rho == 1 and rep.m_value == 3
        for lv in rep.levels:
            assert lv.f_structure == LModule(3, 0, (1,))
            assert lv.f_killed_by_m

    def test_rotation_f_term_vanishes_at_coprime_prime(self):
        # killed by 3 and a 2-group at once, so zero
        rep = bhn_finite_field_report(
            instance(triangle(), [("u", P125, 3)], ell=2))
        assert passed(rep)
        assert all(lv.f_structure.is_trivial for lv in rep.levels)

    def test_orbit_jacobian_instance(self):
        inst = instance(comp_swap(), [("u", P25, 2)])
        rep = bhn_finite_field_report(inst)
        assert passed(rep)
        assert dict(rep.checks)["jacobian cohomology vanishes by both routes"]
        assert h1(torsion_frob(P25, 3)).dual_module.is_trivial
        assert h1(inst.jacobian_blocks[0]).dual_module.is_trivial

    def test_genus_two_quartic(self):
        inst = instance(banana(swap=False, genus=(2, 0)), [("u", QUARTIC5, 1)])
        rep = bhn_finite_field_report(inst)
        assert passed(rep)
        assert dict(rep.checks)["jacobian cohomology vanishes by both routes"]
        assert h1(torsion_frob(QUARTIC5, 3)).dual_module.is_trivial
        assert h1(inst.jacobian_blocks[0]).dual_module.is_trivial

    def test_level_routes_agree_on_random_lattices(self):
        # coker(M - 1 mod l^s) against the sum of Z/l^min(v_l(d_i), s) over
        # the elementary divisors d_i of M - 1, the report's second route
        rng = random.Random(5150)
        for _ in range(300):
            m, _ = random_finite_lattice(rng)
            n = m.rows
            divisors = SmithForm.of(m - IntMatrix.identity(n))
            for ell in (2, 3, 5):
                for s in range(1, 5):
                    lvl = free_level(ell, s, n)
                    got = cokernel(LMap(lvl, lvl, m) - LMap.identity_on(lvl))
                    want = tuple(v for v, _ in divisors.orders(ell, s))
                    assert got.codomain == LModule(ell, 0, want)

    def test_level_routes_take_different_maps(self, monkeypatch):
        # the two routes of "level structures agree between routes" must not
        # both be cokernels of the same map; procyclic takes no cokernel
        seen = []
        real = sequences.cokernel

        def recorded(f):
            seen.append((f.domain, f.matrix))
            return real(f)
        monkeypatch.setattr(sequences, "cokernel", recorded)
        for inst in (instance(banana(swap=True)),
                     instance(triangle(), [("u", P125, 3)], ell=3)):
            seen.clear()
            assert passed(bhn_finite_field_report(inst))
            assert len(seen) == len(set(seen))

    def test_display_shape(self):
        rep = bhn_finite_field_report(instance(banana(swap=True)))
        assert len(rep.display) == 5
        statuses = [t.status for t in rep.display]
        assert statuses.count("modeled") == 2
        assert rep.display[0].label == "F"

    def test_checks_all_named(self):
        rep = bhn_finite_field_report(instance(tree_pair()))
        assert len(rep.checks) == 7
        assert all(ok for _, ok in rep.checks)

    def test_requires_single_frobenius(self):
        g = DualGraph(
            components=(("u", 0), ("v", 0)),
            nodes=("a", "b"),
            edges=(("u", "a"), ("u", "b"), ("v", "a"), ("v", "b")),
            action=[{"a": "b", "b": "a"}, {"u": "v", "v": "u"}],
        )
        with pytest.raises(InvalidInstance):
            bhn_finite_field_report(instance(g))
