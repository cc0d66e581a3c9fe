"""Exact linear algebra layer: Smith form, canonical modules, maps, (co)kernels."""

import ast
import os
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import devissage
from devissage.dualgraph import _boundary_matrix
from devissage.exactlin import (
    NULLITY_PRIME,
    PRIME_BOUND,
    CoLGroup,
    IntMatrix,
    LMap,
    LModule,
    SmithForm,
    adjugate,
    canonicalize_with_maps,
    cokernel,
    free_level,
    homology_at,
    integer_kernel_basis,
    is_prime,
    is_prime_power,
    kernel,
    kernel_coordinates,
    level_kernel,
    matrix_power_kron,
    preimage,
    rank_mod,
    smith_with_inverses,
    solve_integer,
    tensor_maps,
    tensor_with_index,
    valuation,
)
from devissage.lprimary import cleared_minus_one, random_cogroup, torsbis_maps
from devissage.procyclic import _twist_nullity

from generators import random_legal_graph
from oracles import (
    brute_cokernel_structure,
    brute_kernel_structure,
    canonical_orders,
    dense_smith_with_inverses,
    entrywise_lmap_matrix,
    generator_expression_lmodule_check,
    hessenberg_mod,
    identity_kernel_homology_at,
    interleaved_hessenberg_mod,
    rational_nullity,
    row_copying_rank_mod,
    smith_level_orders,
    sorted_filtered_level,
    sorted_key_tensor_index,
    sympy_det,
    sympy_rank,
    trial_division_is_prime,
    trial_division_is_prime_power,
)


def companion(coeffs):
    """Companion matrix of a monic polynomial from its coefficient list (low degree first)."""
    n = len(coeffs) - 1
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = -coeffs[i]
    return IntMatrix.from_rows(rows, n)


class TestSmith:
    def test_frozen_example(self):
        A = IntMatrix.from_rows([[2, 4], [6, 8]])
        U, D, V, _ = smith_with_inverses(A)
        assert [D.entry(i, i) for i in range(2)] == [2, 4]
        assert (U @ A @ V) == D
        assert abs(U.det()) == 1 and abs(V.det()) == 1

    def test_random_properties(self):
        rng = random.Random(11)
        for _ in range(60):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            A = IntMatrix.from_rows(
                [[rng.randint(-40, 40) for _ in range(n)] for _ in range(m)], n
            )
            U, D, V, Ui = smith_with_inverses(A)
            assert (U @ A @ V) == D
            assert abs(U.det()) == 1 and abs(V.det()) == 1
            assert (Ui @ U) == IntMatrix.identity(m)
            diag = [D.entry(i, i) for i in range(min(m, n))]
            for i in range(len(diag) - 1):
                assert diag[i] >= 0
                if diag[i + 1] != 0:
                    assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
            # off-diagonal must vanish
            for i in range(D.rows):
                for j in range(D.cols):
                    if i != j:
                        assert D.entry(i, j) == 0
            # first invariant factor is the gcd of all entries
            entries = [x for r in A.data for x in r if x != 0]
            if entries:
                from math import gcd
                g = 0
                for x in entries:
                    g = gcd(g, x)
                assert diag[0] == g

    def test_second_factor_matches_two_minors(self):
        from math import gcd
        rng = random.Random(7)
        for _ in range(25):
            A = IntMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)], 3
            )
            _, D, _, _ = smith_with_inverses(A)
            facs = [D.entry(i, i) for i in range(3) if D.entry(i, i)]
            if len(facs) < 2:
                continue
            g = 0
            for r1 in range(3):
                for r2 in range(r1 + 1, 3):
                    for c1 in range(3):
                        for c2 in range(c1 + 1, 3):
                            minor = (A.entry(r1, c1) * A.entry(r2, c2)
                                     - A.entry(r1, c2) * A.entry(r2, c1))
                            g = gcd(g, minor)
            assert facs[0] * facs[1] == g

    def test_kernel_basis_is_saturated(self):
        rng = random.Random(3)
        for _ in range(30):
            m = rng.randint(1, 4)
            n = rng.randint(1, 5)
            A = IntMatrix.from_rows(
                [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)], n
            )
            K = integer_kernel_basis(A)
            for column in zip(*K.data):
                assert all(v == 0 for v in A.apply(column))
            assert K.cols == rational_nullity([list(r) for r in A.data], n)
            if K.cols:
                _, D, _, _ = smith_with_inverses(K)
                diag = [D.entry(i, i) for i in range(min(D.rows, D.cols))]
                assert all(d == 1 for d in diag if d)

    def test_solve_integer(self):
        rng = random.Random(5)
        for _ in range(30):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            A = IntMatrix.from_rows(
                [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)], n
            )
            x0 = IntMatrix.from_rows([[rng.randint(-4, 4)] for _ in range(n)])
            b = A @ x0
            x = solve_integer(A, b)
            assert x is not None and A @ x == b
        assert solve_integer(IntMatrix.diagonal([2]),
                             IntMatrix.from_rows([[3]])) is None

    def test_solve_columns(self):
        A = IntMatrix.from_rows([[1, 2], [0, 3], [1, 5]], 2)
        X = IntMatrix.from_rows([[1, -2, 0], [4, 1, 7]], 3)
        assert solve_integer(A, A @ X) == X
        assert solve_integer(A, IntMatrix.zeros(3, 0)) == IntMatrix.zeros(2, 0)
        # the second column has no solution, so the whole system has none
        assert solve_integer(IntMatrix.diagonal([2, 1]), IntMatrix.identity(2)) is None
        with pytest.raises(ValueError):
            solve_integer(A, IntMatrix.identity(2))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_solve_integer_matches_single_columns(self, data):
        m, n, k = (data.draw(st.integers(0, 4)) for _ in range(3))

        def vector(size):
            return data.draw(st.lists(st.integers(-6, 6),
                                      min_size=size, max_size=size))

        A = IntMatrix(m, n, [vector(n) for _ in range(m)])
        # each column of B is an image A x, hence solvable, or arbitrary
        cols = [A.apply(vector(n)) if data.draw(st.booleans()) else vector(m)
                for _ in range(k)]
        B = IntMatrix(m, k, [[c[i] for c in cols] for i in range(m)])
        X = solve_integer(A, B)
        singles = [solve_integer(A, B.take_cols([j])) for j in range(k)]
        assert (X is None) == any(x is None for x in singles)
        if X is not None:
            assert (X.rows, X.cols) == (n, k)
            assert A @ X == B
            for j, x in enumerate(singles):
                assert X.take_cols([j]) == x


class TestCanonical:
    def test_unit_factor_dropped(self):
        R = IntMatrix.from_rows([[2, 0], [0, 3]])
        assert canonicalize_with_maps(2, R)[0] == LModule(2, 0, (1,))
        assert canonicalize_with_maps(3, R)[0] == LModule(3, 0, (1,))

    def test_free_module(self):
        assert canonicalize_with_maps(
            5, IntMatrix.zeros(3, 0))[0] == LModule(5, 3)

    def test_mixed_factor_keeps_l_part(self):
        # Z/12 at l=2 is Z/4
        R = IntMatrix.from_rows([[12]])
        assert canonicalize_with_maps(2, R)[0] == LModule(2, 0, (2,))

    def test_empty_shapes(self):
        # no generators: the zero module, with empty coordinate maps
        for q in (0, 2):
            module, project, lift = canonicalize_with_maps(
                3, IntMatrix.zeros(0, q))
            assert module == LModule(3, 0)
            assert (project.rows, project.cols) == (0, 0)
            assert (lift.rows, lift.cols) == (0, 0)
        # no relations: the free module, with identity coordinate maps
        module, project, lift = canonicalize_with_maps(2, IntMatrix.zeros(2, 0))
        assert module == LModule(2, 2)
        assert project == lift == IntMatrix.identity(2)

    def test_maps_are_mutually_inverse(self):
        rng = random.Random(23)
        for _ in range(25):
            p = rng.randint(1, 4)
            q = rng.randint(0, 4)
            rel = IntMatrix(p, q, [[rng.randint(-20, 20) for _ in range(q)]
                                   for _ in range(p)])
            module, project, lift = canonicalize_with_maps(2, rel)
            prod = project @ lift
            assert prod == IntMatrix.identity(module.num_gens)
            # projection kills every relation l-locally
            killed = project @ rel
            orders = module.gen_orders()
            for i in range(killed.rows):
                for j in range(killed.cols):
                    if orders[i] is None:
                        assert killed.entry(i, j) == 0
                    else:
                        assert killed.entry(i, j) % 2 ** orders[i] == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            LModule(4, 1)  # not prime
        with pytest.raises(ValueError):
            LModule(2, 0, (1, 2))  # must be weakly decreasing
        with pytest.raises(ValueError):
            LModule(2, -1)


class TestClosedForms:
    def test_direct_sum(self):
        a = LModule(3, 1, (2,))
        b = LModule(3, 2, (3, 1))
        assert a.direct_sum(b) == LModule(3, 3, (3, 2, 1))
        with pytest.raises(ValueError, match="l=3 vs l=2"):
            a.direct_sum(LModule(2, 1))

    def test_tensor_cyclic_rules(self):
        Z = LModule(2, 1)
        A = LModule(2, 0, (3,))
        B = LModule(2, 0, (2,))
        assert Z.tensor(Z) == Z
        assert Z.tensor(A) == A
        assert A.tensor(B) == LModule(2, 0, (2,))
        assert A.tensor(A) == LModule(2, 0, (3,))

    def test_tor_cyclic_rules(self):
        Z = LModule(2, 1)
        A = LModule(2, 0, (3,))
        B = LModule(2, 0, (2,))
        assert Z.tor1(A).is_trivial
        assert A.tor1(Z).is_trivial
        assert A.tor1(B) == LModule(2, 0, (2,))

    def test_tensor_tor_against_resolution(self):
        # independent route: tensor/Tor via the standard free resolution of X
        rng = random.Random(41)
        for _ in range(30):
            ell = rng.choice([2, 3])
            X = _random_module(rng, ell)
            Y = _random_module(rng, ell)
            n = X.num_gens
            relcols = X.relation_cols()  # n x k, injective columns
            k = relcols.cols
            free_k = LModule(ell, k)
            free_n = LModule(ell, n)
            f = LMap(free_k, free_n, relcols)
            idY = LMap.identity_on(Y)
            big = tensor_maps(f, idY)
            assert cokernel(big).codomain == X.tensor(Y)
            assert kernel(big).domain == X.tor1(Y)

    def test_dual_involution(self):
        M = LModule(5, 2, (4, 1))
        C = M.dual()
        assert isinstance(C, CoLGroup)
        assert C.corank == 2 and C.finite_exponents == (4, 1)
        assert C.dual() == M

    def test_colgroup_levels(self):
        C = LModule(2, 1, (2,)).dual()
        assert C.level(1) == LModule(2, 0, (1, 1))
        assert C.level(3) == LModule(2, 0, (3, 2))
        inc = C.level_inclusion_matrix(1, 3)
        assert inc.data == ((4, 0), (0, 2))


def _random_module(rng, ell, max_gens=3, max_exp=3, allow_free=True):
    free = rng.randint(0, 1) if allow_free else 0
    k = rng.randint(0, max_gens - free)
    exps = tuple(sorted((rng.randint(1, max_exp) for _ in range(k)), reverse=True))
    return LModule(ell, free, exps)


def _random_map(rng, dom, cod, spread=9):
    """A random well-defined map dom -> cod."""
    ell = dom.ell
    rows = []
    for bo in cod.gen_orders():
        row = []
        for ao in dom.gen_orders():
            if bo is None:
                row.append(rng.randint(-spread, spread) if ao is None else 0)
            else:
                need = 0 if ao is None else max(bo - ao, 0)
                row.append(rng.randint(-spread, spread) * ell ** need)
        rows.append(row)
    return LMap(dom, cod, IntMatrix.from_rows(rows, dom.num_gens))


class TestMaps:
    def test_well_definedness_enforced(self):
        dom = LModule(2, 0, (2,))
        cod = LModule(2, 0, (3,))
        with pytest.raises(ValueError):
            LMap(dom, cod, [[1]])
        LMap(dom, cod, [[2]])  # fine
        with pytest.raises(ValueError):
            LMap(dom, LModule(2, 1), [[1]])  # torsion into free part

    def test_normalisation(self):
        f = LMap(LModule(2, 0, (2,)), LModule(2, 0, (2,)), [[5]])
        assert f.matrix.entry(0, 0) == 1
        g = LMap(LModule(2, 0, (2,)), LModule(2, 0, (2,)), [[-3]])
        assert f == g

    def test_compose_and_apply(self):
        rng = random.Random(9)
        for _ in range(20):
            ell = rng.choice([2, 3])
            A, B, C = (_random_module(rng, ell) for _ in range(3))
            f = _random_map(rng, A, B)
            g = _random_map(rng, B, C)
            gf = g.compose(f)
            # five random coefficient columns, acted on one map after the
            # other and by the composite
            V = IntMatrix.from_rows(
                [[rng.randint(0, 7) for _ in range(5)]
                 for _ in range(A.num_gens)], 5)
            assert C.reduce_columns(gf.matrix @ V) == C.reduce_columns(
                g.matrix @ B.reduce_columns(f.matrix @ V))


class TestKernelsCokernels:
    def test_frozen_small(self):
        ell = 3
        Zl = LModule(ell, 1)
        mul = LMap(Zl, Zl, [[ell]])
        assert cokernel(mul).codomain == LModule(ell, 0, (1,))
        sq = LModule(ell, 0, (2,))
        mul2 = LMap(sq, sq, [[ell]])
        k = kernel(mul2)
        assert k.domain == LModule(ell, 0, (1,))
        # inclusion lands on the l-divisible element and composes to zero
        assert mul2.compose(k).is_zero_map()
        assert cokernel(kernel(mul2)).codomain == LModule(ell, 0, (1,))

    def test_companion_cokernel_frozen(self):
        # F-1 for F the companion of T^2 - 2T + 5, on (Z/8)^2
        ell, n = 2, 3
        sq = LModule(ell, 0, (n, n))
        C = companion([5, -2, 1])
        f = LMap(sq, sq, C - IntMatrix.identity(2))
        ck = cokernel(f)
        assert ck.codomain == LModule(2, 0, (2,))
        oracle = brute_cokernel_structure(
            2, [8, 8], [8, 8], [list(r) for r in f.matrix.data]
        )
        assert oracle == ck.codomain.torsion_exponents

    def test_brute_force_random_finite(self):
        rng = random.Random(77)
        for _ in range(40):
            ell = rng.choice([2, 3])
            dom = _random_module(rng, ell, allow_free=False)
            cod = _random_module(rng, ell, allow_free=False)
            if (ell ** sum(dom.torsion_exponents) > 400
                    or ell ** sum(cod.torsion_exponents) > 400):
                continue
            f = _random_map(rng, dom, cod)
            mat = [list(r) for r in f.matrix.data]
            dorders = [ell ** e for e in dom.torsion_exponents]
            corders = [ell ** e for e in cod.torsion_exponents]
            k = kernel(f)
            ck = cokernel(f)
            assert k.domain.torsion_exponents == brute_kernel_structure(
                ell, dorders, corders, mat)
            assert ck.codomain.torsion_exponents == brute_cokernel_structure(
                ell, dorders, corders, mat)
            assert f.compose(k).is_zero_map()
            assert ck.compose(f).is_zero_map()
            # exactness of  ker -> dom -> cod -> coker  at the middle spots
            assert homology_at(k, f, dom).is_trivial
            assert homology_at(f, ck, cod).is_trivial

    def test_kernel_with_free_parts(self):
        # multiplication by 6 on Z2 x Z/4: kernel trivial at l=2? no: on C4 it is C2... 6 = 2*3
        M = LModule(2, 1, (2,))
        f = LMap(M, M, IntMatrix.diagonal([6, 6]))
        assert kernel(f).domain == LModule(2, 0, (1,))
        assert cokernel(f).codomain == LModule(2, 0, (1, 1))

    def test_herbrand_quotient_trivial_for_finite(self):
        rng = random.Random(13)
        for _ in range(25):
            ell = rng.choice([2, 3])
            M = _random_module(rng, ell, allow_free=False)
            f = _random_map(rng, M, M)
            assert sum(kernel(f).domain.torsion_exponents) \
                == sum(cokernel(f).codomain.torsion_exponents)

    def test_preimage(self):
        M = LModule(2, 0, (3,))
        N = LModule(2, 0, (2,))
        f = LMap(M, N, [[1]])
        three = IntMatrix.from_rows([[3]])
        assert preimage(f, three) == three
        g = LMap(N, M, [[2]])
        # 1 is not a multiple of 2 mod 8
        assert preimage(g, IntMatrix.from_rows([[1]])) is None
        assert preimage(g, IntMatrix.from_rows([[2, 1]])) is None
        assert preimage(f, IntMatrix.zeros(1, 0)) == IntMatrix.zeros(1, 0)

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from([2, 3]),
           st.integers(0, 4))
    def test_preimage_matches_single_columns(self, rng, ell, k):
        dom = _random_module(rng, ell, allow_free=False)
        cod = _random_module(rng, ell, allow_free=False)
        f = _random_map(rng, dom, cod)
        # even-numbered targets are images, the rest arbitrary
        rows = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(cod.num_gens)]
        for j in range(0, k, 2):
            x = [rng.randint(-9, 9) for _ in range(dom.num_gens)]
            for i, v in enumerate(f.matrix.apply(x)):
                rows[i][j] = v
        B = IntMatrix(cod.num_gens, k, rows)
        X = preimage(f, B)
        singles = [preimage(f, B.take_cols([j])) for j in range(k)]
        assert (X is None) == any(x is None for x in singles)
        if X is not None:
            assert (X.rows, X.cols) == (dom.num_gens, k)
            assert dom.reduce_columns(X) == X
            assert cod.reduce_columns(f.matrix @ X) == cod.reduce_columns(B)
            for j, x in enumerate(singles):
                assert X.take_cols([j]) == x

    def test_short_exact_sequence_homology(self):
        ell = 2
        sub = LModule(ell, 0, (1,))
        mid = LModule(ell, 0, (2,))
        quo = LModule(ell, 0, (1,))
        inc = LMap(sub, mid, [[2]])
        prj = LMap(mid, quo, [[1]])
        assert homology_at(None, inc, sub).is_trivial
        assert homology_at(inc, prj, mid).is_trivial
        assert homology_at(prj, None, quo).is_trivial
        # the dualised sequence is exact as well: on canonical generators
        # the dual of f has entries f_ij * l^(a_j - b_i)
        dinc = LMap(quo, mid, [[2]])
        dprj = LMap(mid, sub, [[1]])
        assert homology_at(None, dinc, quo).is_trivial
        assert homology_at(dinc, dprj, mid).is_trivial
        assert homology_at(dprj, None, sub).is_trivial


class TestSumsTensors:
    def test_tensor_index_order(self):
        M = LModule(2, 1, (2,))
        T, pairs = tensor_with_index(M, M)
        assert T == LModule(2, 1, (2, 2, 2))
        assert pairs[0] == (0, 0)  # the free x free generator leads

    def test_tensor_maps_functorial(self):
        rng = random.Random(2)
        for _ in range(15):
            ell = rng.choice([2, 3])
            A, B, C = (_random_module(rng, ell, max_gens=2) for _ in range(3))
            f1 = _random_map(rng, A, B)
            f2 = _random_map(rng, B, C)
            g1 = _random_map(rng, A, B)
            g2 = _random_map(rng, B, C)
            lhs = tensor_maps(f2.compose(f1), g2.compose(g1))
            rhs = tensor_maps(f2, g2).compose(tensor_maps(f1, g1))
            assert lhs == rhs
        idm = LMap.identity_on(LModule(2, 1, (2,)))
        assert tensor_maps(idm, idm) == LMap.identity_on(
            LModule(2, 1, (2,)).tensor(LModule(2, 1, (2,))))


@st.composite
def lmodules(draw, ell=None):
    """A canonical module over l in {2, 3, 5} with free and torsion parts."""
    if ell is None:
        ell = draw(st.sampled_from([2, 3, 5]))
    exps = draw(st.lists(st.integers(1, 4), max_size=3))
    return LModule(ell, draw(st.integers(0, 2)),
                   tuple(sorted(exps, reverse=True)))


def _outcome(build):
    """build()'s value, or the type and message of what it raised."""
    try:
        return "ok", build()
    except Exception as exc:
        return type(exc), str(exc)


class TestFastPathsDifferential:
    """The closed-form and row-wise fast paths against the slow routes."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_tensor_closed_form_matches_index_and_resolution(self, data):
        M = data.draw(lmodules())
        N = data.draw(lmodules(ell=M.ell))
        T, pairs = tensor_with_index(M, N)
        assert M.tensor(N) == T
        assert pairs == sorted_key_tensor_index(M, N)
        # the cokernel of (relations of M) (x) id_N presents M (x) N
        rel = LMap(LModule(M.ell, M.relation_cols().cols),
                   LModule(M.ell, M.num_gens), M.relation_cols())
        big = tensor_maps(rel, LMap.identity_on(N))
        assert cokernel(big).codomain == T

    @settings(max_examples=300, deadline=None)
    @given(ell=st.sampled_from([2, 3, 5]), corank=st.integers(0, 3),
           exps=st.lists(st.integers(1, 8), max_size=4), s=st.integers(0, 6))
    def test_level_closed_form_matches_sort_and_filter(self, ell, corank,
                                                       exps, s):
        G = CoLGroup(LModule(ell, corank, tuple(sorted(exps, reverse=True))))
        assert G.level(s) == sorted_filtered_level(G, s)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), terms=st.sampled_from([2, 3]),
           rng=st.randoms(use_true_random=False))
    def test_homology_matches_identity_kernel_route(self, data, terms, rng):
        # random complexes M -f-> N (-g-> P), g = h o coker(f) so g o f = 0
        M = data.draw(lmodules())
        N = data.draw(lmodules(ell=M.ell))
        maps = [_random_map(rng, M, N)]
        if terms == 3:
            proj = cokernel(maps[0])
            P = data.draw(lmodules(ell=M.ell))
            maps.append(_random_map(rng, proj.codomain, P).compose(proj))
        carriers = [M] + [f.codomain for f in maps]
        for i, carrier in enumerate(carriers):
            incoming = maps[i - 1] if i else None
            outgoing = maps[i] if i < len(maps) else None
            assert (homology_at(incoming, outgoing, carrier)
                    == identity_kernel_homology_at(incoming, outgoing,
                                                   carrier))

    def test_tensor_across_primes(self):
        for M, N in ((LModule(2, 1), LModule(3, 0, (1,))),
                     (LModule(5, 0), LModule(3, 2))):
            with pytest.raises(ValueError, match="tensor across primes"):
                M.tensor(N)
            with pytest.raises(ValueError, match="tensor across primes"):
                tensor_with_index(M, N)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_lmap_matches_entrywise_normaliser(self, data):
        dom = data.draw(lmodules())
        cod = data.draw(lmodules(ell=dom.ell))
        # mostly zeros and l-power multiples, so that well-defined maps,
        # torsion-to-free entries and divisibility failures all turn up
        cell = st.one_of(
            st.just(0),
            st.builds(lambda k, c: dom.ell ** k * c, st.integers(0, 5),
                      st.integers(-30, 30)))
        rows = [[data.draw(cell) for _ in range(dom.num_gens)]
                for _ in range(cod.num_gens)]
        want = _outcome(lambda: entrywise_lmap_matrix(dom, cod, rows))
        got = _outcome(lambda: LMap(
            dom, cod, IntMatrix.from_rows(rows, dom.num_gens)).matrix.data)
        assert got == want

    def test_lmap_differential_cases(self):
        # each branch once, in the spots the random test may miss
        Z, C4, C2 = LModule(2, 1), LModule(2, 0, (2,)), LModule(2, 0, (1,))
        ZC = LModule(2, 1, (2, 1))
        for dom, cod, rows in (
                (C2, Z, [[1]]),               # torsion to free, nonzero
                (C2, Z, [[4]]),               # torsion to free, l-multiple
                (C2, Z, [[2]]),               # torsion to free, l-multiple
                (C2, Z, [[0]]),               # torsion to free, zero
                (ZC, ZC, [[3, 0, 0], [5, 2, 2], [7, 1, 3]]),
                (C2, C4, [[1]]),              # needs divisibility by l
                (ZC, C4, [[9, 6, 3]]),        # entry (0,2) fails
                (Z, Z, [[-9]])):              # free rows are not reduced
            want = _outcome(lambda: entrywise_lmap_matrix(dom, cod, rows))
            got = _outcome(lambda: LMap(dom, cod, rows).matrix.data)
            assert got == want, (dom, cod, rows)

    @settings(max_examples=300, deadline=None)
    # (0, 2) breaks both rules: the >= 1 check must speak first
    @example(ell=2, free_rank=0, exps=[0, 2])
    @example(ell=2, free_rank=0, exps=[1, 2])
    @example(ell=2, free_rank=0, exps=[3.0, 1])
    @given(ell=st.sampled_from([-3, 0, 1, 2, 3, 4, 5, 9]),
           free_rank=st.integers(-1, 2),
           exps=st.lists(st.integers(-1, 4), max_size=4))
    def test_lmodule_rejects_like_generator_expressions(self, ell, free_rank,
                                                        exps):
        want = _outcome(lambda: generator_expression_lmodule_check(
            ell, free_rank, exps))
        got = _outcome(lambda: LModule(ell, free_rank,
                                       tuple(exps)).torsion_exponents)
        assert got == want


def _assert_equals_public_rebuild(x):
    """x holds tuples of Python ints and equals, with an equal hash, what
    the public constructor builds from its data."""
    if isinstance(x, IntMatrix):
        parts, y = x.data, IntMatrix(x.rows, x.cols, x.data)
    else:
        parts = ((x.ell, x.free_rank), x.torsion_exponents)
        y = LModule(x.ell, x.free_rank, x.torsion_exponents)
    assert type(parts) is tuple
    assert all(type(p) is tuple and all(type(v) is int for v in p)
               for p in parts)
    assert x == y and hash(x) == hash(y)


def _random_matrix(rng, rows, cols):
    return IntMatrix(rows, cols, [[rng.randint(-20, 20) for _ in range(cols)]
                                  for _ in range(rows)])


class TestTrustedRoutes:
    """Results the library builds unchecked pass the public constructors."""

    @settings(max_examples=200, deadline=None)
    @example(ell=2, m=0, n=3, k=2, rng=random.Random(0))
    @example(ell=3, m=3, n=0, k=0, rng=random.Random(1))
    @example(ell=5, m=0, n=0, k=1, rng=random.Random(2))
    @given(ell=st.sampled_from([2, 3, 5]), m=st.integers(0, 3),
           n=st.integers(0, 3), k=st.integers(0, 3),
           rng=st.randoms(use_true_random=False))
    def test_trusted_results_equal_their_public_rebuild(self, ell, m, n, k,
                                                         rng):
        A, B = _random_matrix(rng, m, n), _random_matrix(rng, m, n)
        C = _random_matrix(rng, n, k)
        M, N = _random_module(rng, ell), _random_module(rng, ell)
        rows = [rng.randrange(m) for _ in range(k)] if m else []
        cols = [rng.randrange(n) for _ in range(k)] if n else []
        matrices = [
            A.transpose(), A @ C, A + B, A - B, A.scale(rng.randint(-9, 9)),
            A.mod(ell ** rng.randint(1, 3)), A.hstack(A @ C),
            A.take_rows(rows), A.take_cols(cols), A.kron(C),
            IntMatrix.identity(n), IntMatrix.zeros(m, n),
            IntMatrix.diagonal([rng.randint(-9, 9) for _ in range(k)]),
            M.relation_cols(),
            M.reduce_columns(_random_matrix(rng, M.num_gens, k)),
            *smith_with_inverses(A), _random_map(rng, M, N).matrix]
        s = rng.randint(1, 3)
        f_st = torsbis_maps(CoLGroup(LModule(ell, rng.randint(0, 2))), s,
                            rng.randint(s, 4), rng.randint(0, 3), rng).f_st
        matrices.append(f_st.matrix)
        modules = [M.tensor(N), M.tor1(N), M.direct_sum(N),
                   M.dual().level(rng.randint(0, 4)),
                   tensor_with_index(M, N)[0],
                   random_cogroup(rng, ell).dual_module, f_st.codomain]
        for x in matrices + modules:
            _assert_equals_public_rebuild(x)

    def test_transpose_of_empty_shapes(self):
        assert IntMatrix.zeros(0, 3).transpose().data == ((), (), ())
        assert IntMatrix.zeros(3, 0).transpose().data == ()


@st.composite
def low_rank_rows(draw, square=False):
    """Row lists L @ R of a random inner size, so rank deficits are common."""
    m = draw(st.integers(0, 6))
    n = m if square else draw(st.integers(1, 6))
    k = draw(st.integers(0, 6))
    entries = st.integers(-4, 4)
    L = [[draw(entries) for _ in range(k)] for _ in range(m)]
    R = [[draw(entries) for _ in range(n)] for _ in range(k)]
    return [[sum(L[i][t] * R[t][j] for t in range(k)) for j in range(n)]
            for i in range(m)]


class TestBareiss:
    """det and rank, which share one fraction-free elimination, against sympy."""

    @settings(max_examples=150, deadline=None)
    @given(low_rank_rows(square=True))
    @example([[0, 1], [1, 0]])
    @example([[0, 0, 1], [0, 2, 0], [3, 0, 0]])
    def test_det_matches_sympy(self, rows):
        assert IntMatrix.from_rows(rows, len(rows)).det() == sympy_det(rows)

    @settings(max_examples=150, deadline=None)
    @given(low_rank_rows())
    @example([[0, 0, 1], [0, 0, 2], [0, 3, 0]])
    def test_rank_matches_sympy(self, rows):
        cols = len(rows[0]) if rows else 1
        assert IntMatrix.from_rows(rows, cols).rank() == sympy_rank(rows)


@st.composite
def twist_cases(draw):
    """(M, q, a) for the twist nullity of q^a M - 1, M square: M - 1 is
    L @ R of a random inner size, so the twist a = 0 is often rank
    deficient.  Half the draws shift entries by multiples of NULLITY_PRIME,
    which keeps the rank mod the prime but often raises the rank over Q;
    q = NULLITY_PRIME takes the exact route at every twist."""
    n, k = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entries = st.integers(-4, 4)
    L = [[draw(entries) for _ in range(k)] for _ in range(n)]
    R = [[draw(entries) for _ in range(n)] for _ in range(k)]
    shifts = st.sampled_from((0, NULLITY_PRIME, -2 * NULLITY_PRIME)) \
        if draw(st.booleans()) else st.just(0)
    M = IntMatrix(n, n, [[sum(L[i][t] * R[t][j] for t in range(k))
                          + draw(shifts) + (i == j) for j in range(n)]
                         for i in range(n)])
    return (M, draw(st.sampled_from((2, 5, NULLITY_PRIME))),
            draw(st.sampled_from((0, 0, 1, -1, 2))))


def twist_nullity(M, q, a):
    """_twist_nullity on M with its residue rows mod NULLITY_PRIME."""
    return _twist_nullity(M, M.residue_rows(NULLITY_PRIME), q, a)


def rank_mod_of(A, p):
    """rank_mod on the residue rows of A mod p."""
    return rank_mod(A.residue_rows(p), p)


class TestNullity:
    """The twist nullity: full rank mod a prime of the residue rows shifted
    on the diagonal as a proof of nullity 0, the exact Bareiss rank
    otherwise."""

    @settings(max_examples=300, deadline=None)
    @given(twist_cases())
    # the shift cancels a stored diagonal residue, M_00 = q^-a mod p, at
    # full rank and at a short one, and at a > 0 through the inverse of q
    @example((IntMatrix.from_rows([[5, 1], [1, 0]]), 5, -1))
    @example((IntMatrix.from_rows([[5, 1], [0, 2]]), 5, -1))
    @example((IntMatrix.from_rows([[pow(5, -1, NULLITY_PRIME), 1], [1, 0]]),
              5, 1))
    # a zero residue row, and a zero row of the shifted matrix
    @example((IntMatrix.from_rows([[0, 0], [3, 4]]), 5, 0))
    @example((IntMatrix.from_rows([[1, 0], [3, 4]]), 5, 0))
    @example((IntMatrix(0, 0, []), 5, 1))
    def test_matches_kernel_basis_and_fractions(self, case):
        M, q, a = case
        A = cleared_minus_one(M, q, a)
        want = rational_nullity(A.data, A.cols)
        assert twist_nullity(M, q, a) == integer_kernel_basis(A).cols \
            == want
        # a minor that is nonzero mod p is nonzero over Z
        assert rank_mod_of(A, NULLITY_PRIME) <= A.cols - want

    @pytest.mark.parametrize("rows, rank_p, want", [
        ([[NULLITY_PRIME]], 0, 0),
        ([[NULLITY_PRIME, 0], [0, 1]], 1, 0),
        ([[1, 1], [1, 1 + NULLITY_PRIME]], 1, 0),       # det = p
        ([[NULLITY_PRIME, 2 * NULLITY_PRIME], [1, 2]], 1, 1),  # short over Q
        ([[2, 4, 0], [1, 2, NULLITY_PRIME],
          [3, 6 - NULLITY_PRIME, 0]], 1, 0),             # det = 2p^2
        ([[0, 0, 0]] * 3, 0, 3),
    ])
    def test_prime_dividing_a_minor_takes_the_fallback(self, rows, rank_p,
                                                       want):
        # rows is M - 1, the twist a = 0; a short rank mod p goes to the
        # exact route
        A = IntMatrix.from_rows(rows)
        assert rank_mod_of(A, NULLITY_PRIME) == rank_p < A.cols
        M = A + IntMatrix.identity(A.rows)
        assert twist_nullity(M, 5, 0) == want == rational_nullity(rows,
                                                                   A.cols)

    def test_rank_mod_small_primes(self):
        A = IntMatrix.from_rows([[2, 0, 0], [0, 3, 0], [0, 0, 5]])
        assert [rank_mod_of(A, p) for p in (2, 3, 5, 7)] == [2, 2, 2, 3]
        assert rank_mod_of(IntMatrix(0, 4, []), 3) == 0


@st.composite
def rank_cases(draw):
    """A matrix and a prime p, of three kinds: any shape up to 8x8, 0 rows
    or 0 columns included, with rows repeated up to a factor; an upper
    Hessenberg matrix with zero subdiagonal entries; a shifted Kronecker
    power, up to 16x16, of a companion matrix C or of adj(C)^T, rows
    permuted, as the vanishing suite's twists are.  C's polynomial has
    integer roots, so half the shifts are an eigenvalue of the power: a
    product of j roots of C, or of adj(C)^T, whose roots are det(C)/x."""
    p = draw(st.sampled_from((2, 3, NULLITY_PRIME)))
    entries = st.one_of(st.integers(-4, 4), st.integers(0, p - 1))
    kind = draw(st.sampled_from(("any", "hessenberg", "kronecker")))
    if kind == "hessenberg":
        m = n = draw(st.integers(0, 8))
        rows = [[draw(entries) if c + 1 >= i else 0 for c in range(n)]
                for i in range(n)]
        for k in draw(st.lists(st.integers(0, n - 2), max_size=3)) \
                if n > 1 else ():
            rows[k + 1][k] = 0
    elif kind == "any":
        m, n = draw(st.integers(0, 8)), draw(st.integers(0, 8))
        rows = [[draw(entries) for _ in range(n)] for _ in range(m)]
        for _ in range(draw(st.integers(0, 3)) if m else 0):
            i, k = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
            c = draw(st.integers(-3, 3))
            rows[i] = [c * x for x in rows[k]]
    else:
        roots = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=1,
                              max_size=4))
        coeffs = [1]   # low degree first, times T - x for each root x
        for x in roots:
            coeffs = [b - x * a for a, b in zip(coeffs + [0], [0] + coeffs)]
        C = companion(coeffs)
        eigen = roots
        if draw(st.booleans()):
            det = C.det()
            C, eigen = adjugate(C).transpose(), [det // x for x in roots]
        j = draw(st.integers(1, 4 if len(roots) <= 2 else 2))
        power = matrix_power_kron(C, j)
        mu = draw(entries)
        if draw(st.booleans()):
            mu = 1
            for _ in range(j):
                mu *= draw(st.sampled_from(eigen))
        m = n = power.rows
        order = draw(st.permutations(range(n)))
        rows = [[x - mu * (i == c) for c, x in enumerate(power.data[i])]
                for i in order]
    return IntMatrix(m, n, rows), p


class TestRankMod:
    """In-place elimination with the fewest-nonzeros pivot against the
    row-copying one, which pivots on the first nonzero row: over a field
    the rank does not depend on the pivot order."""

    @settings(max_examples=400, deadline=None)
    @given(rank_cases())
    @example((IntMatrix(0, 3, []), 2))
    @example((IntMatrix(3, 0, [[], [], []]), NULLITY_PRIME))
    @example((IntMatrix(0, 0, []), 3))
    @example((IntMatrix.from_rows([[1, 2, 3], [0, 0, 4], [0, 0, 5]]), 3))
    # a zero row, and residues that cancel: fill meets an entry it clears
    @example((IntMatrix.from_rows([[0, 0, 0], [1, 2, 3], [0, 0, 0]]), 5))
    @example((IntMatrix.from_rows([[1, 1, 1], [1, 1, 3], [2, 2, 0]]), 7))
    def test_matches_row_copying_elimination(self, case):
        A, p = case
        assert rank_mod_of(A, p) == row_copying_rank_mod(A, p)


@st.composite
def smith_inputs(draw):
    """A matrix up to 8x9 of one of four kinds: sparse with entries 0, 1,
    -1; the boundary matrix of a random_legal_graph draw; dense with entries
    up to 9 in absolute value, so that non-unit pivots and the divisibility
    step run; dense with some rows repeated."""
    kind = draw(st.sampled_from(("sparse", "boundary", "dense", "repeated")))
    if kind == "boundary":
        rng = draw(st.randoms(use_true_random=False))
        return _boundary_matrix(random_legal_graph(rng, max_components=5))
    m, n = draw(st.integers(0, 8)), draw(st.integers(0, 9))
    pool = (0, 0, 0, 1, -1) if kind == "sparse" else tuple(range(-9, 10))
    rows = [[draw(st.sampled_from(pool)) for _ in range(n)] for _ in range(m)]
    if kind == "repeated" and m > 1:
        for _ in range(draw(st.integers(1, m - 1))):
            i, k = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
            rows[i] = list(rows[k])
    return IntMatrix(m, n, rows)


class TestSmithAgainstDenseRoute:
    """smith_with_inverses skips zeros and stops at the first unit pivot but
    makes the elementary operations of the dense routine it replaced, in
    the same order: U, D, V and U^-1 agree entry for entry."""

    @settings(max_examples=400, deadline=None)
    @given(smith_inputs())
    @example(IntMatrix(0, 4, []))
    @example(IntMatrix(3, 0, [[], [], []]))
    @example(IntMatrix(0, 0, []))
    @example(IntMatrix.from_rows([[7]]))
    @example(IntMatrix.from_rows([[-1]]))
    @example(IntMatrix.from_rows([[2, 0], [0, 3]]))
    @example(IntMatrix.from_rows([[0, -1, 2], [3, 0, -1], [0, -1, 2]]))
    @example(IntMatrix.from_rows([[-2, 4, 6], [-2, 4, 6], [4, -1, 0]]))
    def test_same_transforms_as_the_dense_route(self, A):
        assert smith_with_inverses(A) == dense_smith_with_inverses(A)

    def test_divisibility_step_runs(self):
        # 2 does not divide 3: row 1 is added to row 0 and the pivot redone
        D = smith_with_inverses(IntMatrix.from_rows([[2, 0], [0, 3]]))[1]
        assert D == IntMatrix.from_rows([[1, 0], [0, 6]])


@st.composite
def hessenberg_cases(draw):
    """A square matrix up to 8x8 with zero columns, repeated rows and zero
    subcolumns, a prime p and the shifts to compare at: every residue for
    p = 2, 3, one random shift for NULLITY_PRIME, where half the draws make
    two rows of A - mu equal so that the shifted rank drops."""
    n = draw(st.integers(0, 8))
    rows = [[draw(st.integers(-4, 4)) for _ in range(n)] for _ in range(n)]
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        kind = draw(st.sampled_from(("column", "row", "subcolumn")))
        k, i = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if kind == "column":
            for r in rows:
                r[k] = 0
        elif kind == "row":
            rows[i] = list(rows[k])
        else:
            for r in rows[k + 1:]:
                r[k] = 0
    p = draw(st.sampled_from((2, 3, NULLITY_PRIME)))
    if p < NULLITY_PRIME:
        return IntMatrix.from_rows(rows, n), p, range(p)
    mu = draw(st.one_of(st.integers(-4, 4), st.integers(0, p - 1)))
    if n > 1 and draw(st.booleans()):
        i, k = draw(st.permutations(range(n)))[:2]
        rows[i] = [x + mu * ((c == i) - (c == k))
                   for c, x in enumerate(rows[k])]
    return IntMatrix.from_rows(rows, n), p, (mu,)


class TestHessenberg:
    """The Gaussian similarity behind the slow twist route,
    oracles.hessenberg_box_nullity."""

    @settings(max_examples=300, deadline=None)
    @given(hessenberg_cases())
    @example((IntMatrix.from_rows([[0, 1, 1], [0, 0, 1], [1, 0, 0]]), 2,
              range(2)))
    def test_hessenberg_keeps_every_shifted_rank(self, case):
        A, p, mus = case
        H = hessenberg_mod(A, p)
        n = A.rows
        assert (H.rows, H.cols) == (n, n)
        assert all(0 <= x < p for r in H.data for x in r)
        assert all(H.entry(i, k) == 0 for k in range(n)
                   for i in range(k + 2, n))
        one = IntMatrix.identity(n)
        for mu in mus:
            assert rank_mod_of(H - one.scale(mu), p) == \
                rank_mod_of(A - one.scale(mu), p)

    @settings(max_examples=300, deadline=None)
    @given(hessenberg_cases())
    def test_batched_column_update_matches_interleaved(self, case):
        A, p, _ = case
        assert hessenberg_mod(A, p) == interleaved_hessenberg_mod(A, p)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            hessenberg_mod(IntMatrix.zeros(2, 3), 5)


def _unimodular(rng, n):
    """A random product of elementary row additions and swaps on I_n."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        if rng.random() < 0.25:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            c = rng.randint(-3, 3)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return IntMatrix(n, n, rows)


@st.composite
def smith_shaped(draw):
    """(l, A) with A = L D R for unimodular L, R and a diagonal D whose
    entries include zeros, units, multiples of l and powers of l above the
    highest level 4: those are the l-parts of A's invariant factors."""
    ell = draw(st.sampled_from((2, 3, 5)))
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    factors = st.sampled_from(
        (0, 1, 7, ell, 7 * ell, ell ** 2, ell ** 3, ell ** 5))
    D = IntMatrix(m, n, [[draw(factors) if i == j else 0 for j in range(n)]
                         for i in range(m)])
    rng = draw(st.randoms(use_true_random=False))
    return ell, _unimodular(rng, m) @ D @ _unimodular(rng, n)


class TestLevelKernel:
    """ker(A mod l^s) read from one Smith form against kernel and preimage."""

    @settings(max_examples=200, deadline=None)
    @given(smith_shaped(), st.integers(1, 4), st.randoms(use_true_random=False))
    @example((2, IntMatrix.diagonal([0, 2, 32, 7])), 2, random.Random(0))
    @example((3, IntMatrix.from_rows([[9, 0, 0], [0, 243, 0]])), 4,
             random.Random(1))
    def test_matches_kernel_and_preimage(self, case, s, rng):
        ell, A = case
        mod = ell ** s
        sf = SmithForm.of(A.transpose())
        got = level_kernel(sf, ell, s)
        want = kernel(LMap(free_level(ell, s, A.cols),
                           free_level(ell, s, A.rows), A))
        assert got.domain == want.domain
        # the two inclusions span the same submodule mod l^s
        assert preimage(got, want.matrix) is not None
        assert preimage(want, got.matrix) is not None
        # kernel vectors: the coordinates are the unique preimage
        k = want.domain.num_gens
        combos = IntMatrix(k, 3, [[rng.randrange(mod) for _ in range(3)]
                                  for _ in range(k)])
        X = want.matrix @ combos
        assert kernel_coordinates(sf, ell, s, X) == preimage(got, X)
        # a kernel vector plus a unit vector: refused exactly off the kernel
        for j in range(A.cols):
            x = IntMatrix.from_rows([[r[0] + (i == j)]
                                     for i, r in enumerate(X.data)])
            inside = (A @ x).mod(mod).is_zero()
            assert (kernel_coordinates(sf, ell, s, x) is None) == (not inside)


class TestSmithForm:
    """The one Smith form reader against the classifiers it replaced, and
    the one place that takes a Smith form."""

    @settings(max_examples=200, deadline=None)
    @given(smith_shaped(), st.integers(0, 4))
    @example((2, IntMatrix.zeros(0, 3)), 2)
    @example((3, IntMatrix.zeros(3, 0)), 4)
    @example((5, IntMatrix.zeros(2, 3)), 1)
    @example((2, IntMatrix.identity(3)), 3)
    def test_orders_match_pre_change_classifiers(self, case, s):
        ell, A = case
        sf = SmithForm.of(A)
        U, D, V, Ui = smith_with_inverses(A)
        assert (sf.U, sf.V, sf.Uinv) == (U, V, Ui)
        assert len(sf.diagonal) == A.rows
        assert sf.orders(ell) == canonical_orders(ell, D)
        assert sf.orders(ell, s) == smith_level_orders(ell, s, D)

    def test_smith_with_inverses_has_one_home(self):
        # every name of smith_with_inverses in src/devissage, by innermost
        # enclosing definition: only SmithForm.of calls it and unpacks its
        # (U, D, V, Uinv), so every other reader goes through SmithForm
        src = os.path.dirname(devissage.__file__)
        found = set()

        def visit(node, path, where):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                where = where + (node.name,)
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name == "smith_with_inverses":
                found.add((path, ".".join(where)))
            for child in ast.iter_child_nodes(node):
                visit(child, path, where)

        for path in sorted(os.listdir(src)):
            if path.endswith(".py"):
                with open(os.path.join(src, path)) as fh:
                    visit(ast.parse(fh.read()), path, ())
        assert found == {("exactlin.py", "SmithForm.of")}


class TestMisc:
    def test_is_prime_matches_trial_division(self):
        for n in range(-5, 10 ** 5):
            assert is_prime(n) == trial_division_is_prime(n), n

    def test_is_prime_beyond_trial_division(self):
        # strong pseudoprimes to the bases 2..7 and 2..23 respectively
        for n, factors in ((3215031751, (151, 751, 28351)),
                           (3825123056546413051, (149491, 747451, 34233211))):
            assert n == factors[0] * factors[1] * factors[2]
            assert not is_prime(n)
        assert is_prime(2 ** 61 - 1) and is_prime(10 ** 12 + 39)
        assert not is_prime((2 ** 31 - 1) * (10 ** 12 + 39))
        assert is_prime(10 ** 24 + 7)
        # the bound itself is a strong pseudoprime to all 13 bases
        with pytest.raises(ValueError):
            is_prime(PRIME_BOUND)

    def test_is_prime_power_matches_trial_division(self):
        for n in range(-5, 5000):
            assert is_prime_power(n) == trial_division_is_prime_power(n), n

    def test_is_prime_power_beyond_trial_division(self):
        big = 2 ** 61 - 1
        for q in (2 ** 200, 3 ** 80, 43 ** 50, (10 ** 12 + 39) ** 3, big ** 7):
            assert is_prime_power(q), q
        # 10^40 + 1 has the factor 17; 2021 = 43 * 47 is the 6th root
        for q in (10, 10 ** 40 + 1, 43 ** 5 * 47, (43 * 47) ** 6, big * 43):
            assert not is_prime_power(q), q
        # no factor up to 41, and the root is at or above PRIME_BOUND
        for q in (PRIME_BOUND, (big * (10 ** 12 + 39)) ** 2):
            with pytest.raises(ValueError):
                is_prime_power(q)

    def test_valuation(self):
        assert valuation(-48, 2) == 4
        with pytest.raises(ValueError):
            valuation(0, 2)

    def test_isomorphy_is_equality(self):
        assert LModule(2, 1, (2, 1)) == LModule(2, 1, (2, 1))
        assert LModule(2, 1, (2, 1)) != LModule(2, 1, (2, 2))
