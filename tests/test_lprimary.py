"""Tests for the modified tensor calculus on l-primary groups."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devissage import lprimary
from devissage.exactlin import (
    CoLGroup,
    IntMatrix,
    LMap,
    LModule,
    cokernel,
    kernel,
    matrix_power_kron,
)
from devissage.lprimary import (
    CoMap,
    FrobObject,
    box,
    box_frob_power,
    box_maps,
    box_power,
    box_unit,
    co_direct_sum,
    co_exactness,
    finite_box_power,
    left_exactness_probe,
    random_cogroup,
    tor_box,
    tors_level_check,
    torsbis_maps,
)

from oracles import (
    co_cokernel,
    composed_torsbis_commutes,
    group_structure,
    randint_random_cogroup,
    randint_torsbis_f_st,
    subgroup_closure,
    tensor_maps_frob_power,
    tensor_power_with_index,
    unit_box_power,
)


def mult_ell_ses(ell):
    """0 -> Z/l -> Ql/Zl ->(mult l) Ql/Zl -> 0."""
    fin = CoLGroup(LModule(ell, 0, (1,)))
    unit = box_unit(ell)
    iota = CoMap.from_dual_matrix(fin, unit, [[1]])
    pi = CoMap.multiplication(unit, ell)
    return fin, unit, iota, pi


def split_ses(X, Z):
    """0 -> X -> X + Z -> Z -> 0 with the canonical maps.

    The dual sum lists its free generators first, then torsion by
    decreasing exponent, ties in block order (the sort is stable).
    """
    blocks = (X.dual_module, Z.dual_module)
    gens = [(b, i, e) for b, M in enumerate(blocks)
            for i, e in enumerate(M.gen_orders())]
    gens.sort(key=lambda g: (0, 0) if g[2] is None else (1, -g[2]))
    # projection of the dual sum onto each block, one row per block generator
    proj = [IntMatrix.from_rows([[int((b, i) == (c, j)) for c, j, _ in gens]
                                 for i in range(M.num_gens)], len(gens))
            for b, M in enumerate(blocks)]
    Y = co_direct_sum(X, Z)
    # dual of the inclusion: project onto X; dual of the projection: inject Z
    iota = CoMap.from_dual_matrix(X, Y, proj[0])
    pi = CoMap.from_dual_matrix(Y, Z, proj[1].transpose())
    return Y, iota, pi


class TestBox:
    def test_unit_absorbs(self):
        rng = random.Random(11)
        for _ in range(30):
            A = random_cogroup(rng, 3)
            assert box(A, box_unit(3)) == A
            assert box(box_unit(3), A) == A

    def test_corank_multiplies(self):
        for a in range(4):
            for b in range(4):
                A = CoLGroup(LModule(2, a))
                B = CoLGroup(LModule(2, b))
                assert box(A, B).corank == a * b

    def test_finite_cyclic(self):
        # Z/l box Z/l^2 has order l, from the dual tensor
        A = CoLGroup(LModule(5, 0, (1,)))
        B = CoLGroup(LModule(5, 0, (2,)))
        assert box(A, B) == CoLGroup(LModule(5, 0, (1,)))

    def test_commutative_associative_distributive(self):
        rng = random.Random(23)
        for _ in range(100):
            ell = rng.choice([2, 3, 5])
            A = random_cogroup(rng, ell)
            B = random_cogroup(rng, ell)
            C = random_cogroup(rng, ell)
            assert box(A, B) == box(B, A)
            assert box(box(A, B), C) == box(A, box(B, C))
            assert box(co_direct_sum(A, B), C) == \
                co_direct_sum(box(A, C), box(B, C))

    def test_power_association(self):
        rng = random.Random(31)
        for _ in range(20):
            A = random_cogroup(rng, 2)
            left = box(box(A, A), A)
            right = box(A, box(A, A))
            assert left == right == box_power(A, 3)

    def test_power_zero_is_unit(self):
        A = CoLGroup(LModule(7, 2, (3, 1)))
        assert box_power(A, 0) == box_unit(7)
        assert box_power(box_unit(7), 5) == box_unit(7)

    @settings(max_examples=80, deadline=None)
    @given(ell=st.sampled_from((2, 3, 5)), corank=st.integers(0, 2),
           exps=st.lists(st.integers(1, 3), max_size=3), n=st.integers(0, 4))
    def test_power_matches_the_unit_started_power(self, ell, corank, exps, n):
        # differential: n - 1 products from A against n from the unit,
        # finite parts and the trivial group (corank 0, no exponents) included
        A = CoLGroup(LModule(ell, corank, tuple(sorted(exps, reverse=True))))
        assert box_power(A, n) == unit_box_power(A, n)
        with pytest.raises(ValueError, match="negative box power"):
            box_power(A, -1)

    def test_prime_mismatch(self):
        with pytest.raises(ValueError, match="tensor across primes"):
            box(box_unit(2), box_unit(3))

    @pytest.mark.parametrize("product", [box, co_direct_sum, tor_box])
    def test_products_reject_mixed_primes(self, product):
        # each product leaves the prime check to the LModule operation it wraps
        A = CoLGroup(LModule(2, 1, (2, 1)))
        B = CoLGroup(LModule(3, 1, (1,)))
        with pytest.raises(ValueError, match="across primes|l=2 vs l=3"):
            product(A, B)
        with pytest.raises(ValueError, match="across primes|l=3 vs l=2"):
            product(B, A)


class TestTor:
    def test_cyclic_closed_form(self):
        for n in range(1, 5):
            for m in range(1, 5):
                A = CoLGroup(LModule(3, 0, (n,)))
                B = CoLGroup(LModule(3, 0, (m,)))
                assert tor_box(A, B) == CoLGroup(LModule(3, 0, (min(n, m),)))

    def test_divisible_kills_tor(self):
        rng = random.Random(7)
        for _ in range(20):
            A = random_cogroup(rng, 2)
            D = CoLGroup(LModule(2, rng.randint(1, 3)))
            assert tor_box(A, D).is_trivial
            assert tor_box(D, A).is_trivial

    def test_symmetric(self):
        rng = random.Random(41)
        for _ in range(30):
            A = random_cogroup(rng, 5)
            B = random_cogroup(rng, 5)
            assert tor_box(A, B) == tor_box(B, A)


class TestCoMaps:
    def test_identity_and_zero(self):
        A = CoLGroup(LModule(2, 1, (2,)))
        assert CoMap.identity_on(A).compose(CoMap.identity_on(A)).dual_map \
            == CoMap.identity_on(A).dual_map
        assert CoMap.multiplication(A, 0).is_zero_map()

    def test_kernel_of_mult(self):
        # kernel of mult by l^2 on Ql/Zl is Z/l^2, and mult is onto
        U = box_unit(5)
        sub, quo = co_exactness([CoMap.multiplication(U, 25)])
        assert sub == CoLGroup(LModule(5, 0, (2,)))
        assert quo.is_trivial

    def test_cokernel_of_inclusion(self):
        # Ql/Zl / (l^s-torsion) is again Ql/Zl: dual kernel of Zl ->(1) Z/l^s
        fin, unit, iota, pi = mult_ell_ses(2)
        quo, proj = co_cokernel(iota)
        assert quo == unit


class TestLeftExactness:
    def test_mult_ell_ses_is_exact(self):
        _, _, iota, pi = mult_ell_ses(2)
        hs = co_exactness([iota, pi])
        assert all(h.is_trivial for h in hs)

    def test_probe_records_obstruction(self):
        fin, unit, iota, pi = mult_ell_ses(2)
        res, = left_exactness_probe(iota, pi, fin)
        assert res.left_exact
        assert not res.surjective
        assert res.obstruction == CoLGroup(LModule(2, 0, (1,)))

    def test_probe_with_divisible_stays_exact(self):
        _, unit, iota, pi = mult_ell_ses(3)
        res, = left_exactness_probe(iota, pi, unit)
        assert res.left_exact and res.surjective

    def test_split_sequence_stays_exact(self):
        rng = random.Random(13)
        for _ in range(10):
            ell = rng.choice([2, 3])
            X = random_cogroup(rng, ell)
            Z = random_cogroup(rng, ell)
            A = random_cogroup(rng, ell)
            _, iota, pi = split_ses(X, Z)
            res, = left_exactness_probe(iota, pi, A)
            assert res.left_exact and res.surjective

    def test_obstruction_is_the_cokernel_of_the_boxed_right_map(self):
        # the probe reads the obstruction off the last homology; the
        # separate cokernel route must agree, on split, divisible and
        # non-split finite sequences boxed with the unit, Z/l and random A
        rng = random.Random(29)
        for ell in (2, 3, 5):
            fin, unit, iota, pi = mult_ell_ses(ell)
            C2 = CoLGroup(LModule(ell, 0, (2,)))
            seqs = [(iota, pi),
                    (CoMap.from_dual_matrix(fin, C2, [[1]]),
                     CoMap.from_dual_matrix(C2, fin, [[ell]])),
                    split_ses(random_cogroup(rng, ell),
                              random_cogroup(rng, ell))[1:]]
            for A in [unit, fin] + [random_cogroup(rng, ell)
                                    for _ in range(6)]:
                idA = CoMap.identity_on(A)
                for i, p in seqs:
                    want, _ = co_cokernel(box_maps(p, idA))
                    res, = left_exactness_probe(i, p, A)
                    assert res.obstruction == want

    def test_not_exact_rejected(self):
        U = box_unit(2)
        with pytest.raises(ValueError, match="not compose to zero"):
            left_exactness_probe(CoMap.multiplication(U, 2),
                                 CoMap.multiplication(U, 2), U)

    def test_composing_but_not_exact_rejected(self):
        # pi iota = 0 but iota is not injective, and each boxed sequence is
        # a complex: only the proof on the input sequence can reject it,
        # once for all the groups
        fin, unit, _, _ = mult_ell_ses(2)
        zero = CoMap.from_dual_matrix(fin, unit, [[0]])
        with pytest.raises(ValueError, match="input sequence is not exact"):
            left_exactness_probe(zero, CoMap.identity_on(unit), unit, fin)


class TestLevels:
    def test_unit_levels(self):
        assert box_unit(3).level(2) == LModule(3, 0, (2,))
        mixed = CoLGroup(LModule(2, 1, (1,)))
        assert mixed.level(1) == LModule(2, 0, (1, 1))

    def test_level_box_commutation(self):
        rng = random.Random(97)
        for _ in range(20):
            c = rng.randint(1, 2)
            A = CoLGroup(LModule(rng.choice([2, 3]), c))
            n = rng.randint(0, 3)
            s = rng.randint(1, 3)
            assert tors_level_check(A, n, s)

    def test_level_zero_is_trivial_on_both_sides(self):
        for A in (box_unit(2), CoLGroup(LModule(3, 2))):
            for n in range(4):
                assert tors_level_check(A, n, 0)

    def test_level_box_matches_finite_power(self):
        A = CoLGroup(LModule(2, 2))
        lv = A.level(2)
        assert box_power(A, 3).level(2) == finite_box_power(lv, 3)

    def test_counts_by_closure(self):
        # the level subgroup really is the full l^s-torsion: count elements
        A = CoLGroup(LModule(2, 1, (2,)))
        lvl = A.level(1)
        # in (Q2/Z2) + Z/4 the 2-torsion has order 4
        assert lvl.is_finite and 2 ** sum(lvl.torsion_exponents) == 4


def _unit_level_raising(ell, s, t):
    """Multiplication by l^(t-s) from Z/l^s to Z/l^t: f_st at n = 0."""
    return LMap(LModule(ell, 0, (s,)), LModule(ell, 0, (t,)),
                [[ell ** (t - s)]])


class TestTorsBis:
    def test_rank_one_inclusion(self):
        A = box_unit(2)
        data = torsbis_maps(A, 1, 2, 1)
        assert data.f_st.matrix.data == ((2,),)
        assert data.commutes

    def test_two_legs_random_lifts(self):
        A = CoLGroup(LModule(2, 2))
        rng = random.Random(5)
        base = torsbis_maps(A, 1, 3, 2)
        pert = torsbis_maps(A, 1, 3, 2, rng=rng)
        assert base.commutes and pert.commutes
        assert base.f_st == pert.f_st

    def test_degenerate_power(self):
        data = torsbis_maps(box_unit(3), 2, 4, 0)
        assert data.commutes

    def test_rejects_finite_part(self):
        with pytest.raises(ValueError, match="need a divisible group"):
            torsbis_maps(CoLGroup(LModule(2, 1, (1,))), 1, 2, 1)

    def test_well_definedness_many_seeds(self):
        A = CoLGroup(LModule(3, 1))
        base = torsbis_maps(A, 1, 2, 3)
        for seed in range(10):
            pert = torsbis_maps(A, 1, 2, 3, rng=random.Random(seed))
            assert base.f_st == pert.f_st

    @settings(max_examples=60, deadline=None)
    @given(ell=st.sampled_from((2, 3, 5)), corank=st.integers(0, 3),
           n=st.integers(0, 3), levels=st.sampled_from(
               [(s, t) for t in range(2, 5) for s in range(1, t)]))
    def test_codomain_is_the_level_t_tensor_power(self, ell, corank, n,
                                                  levels):
        # differential: against the level-t tensor power and its own index;
        # with unperturbed lifts f_st sends the generator of each index
        # tuple to l^(t-s) times the generator of that tuple at level t.
        # At n = 0 the tensor power is Zl, but the levels of the unit are
        # cyclic: f_st is [l^(t-s)] from Z/l^s to Z/l^t
        s, t = levels
        A = CoLGroup(LModule(ell, corank))
        data = torsbis_maps(A, s, t, n)
        if n == 0:
            assert data.f_st == _unit_level_raising(ell, s, t)
        else:
            cod, cidx = tensor_power_with_index(A.level(t), n)
            dom, didx = tensor_power_with_index(A.level(s), n)
            assert data.f_st.codomain == cod
            assert data.f_st.domain == dom
            rows = [[ell ** (t - s) if ctup == dtup else 0 for dtup in didx]
                    for ctup in cidx]
            assert data.f_st.matrix == IntMatrix.from_rows(rows, len(didx))
        assert data.commutes

    def test_direct_comparison_matches_composed_square(self):
        # every point of the grid above, with and without perturbed lifts;
        # the composed route must also see a square that does not commute
        rng = random.Random(0)
        for ell in (2, 3, 5):
            for corank in (1, 2):
                A = CoLGroup(LModule(ell, corank))
                for n in (1, 2, 3):
                    for t in range(2, 5):
                        for s in range(1, t):
                            for lifts in (None, rng):
                                data = torsbis_maps(A, s, t, n, rng=lifts)
                                assert data.commutes == \
                                    composed_torsbis_commutes(data)
                            broken = replace(data, f_st=data.f_st.scale(0))
                            assert not composed_torsbis_commutes(broken)


class TestSameStreamDraws:
    """The randrange draws of random_cogroup and of torsbis_maps's lifts
    against their randint forms: CPython's randint(a, b) is
    a + randrange(b - a + 1), so the values and the generator's state
    afterwards must be the same."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 64), ell=st.sampled_from((2, 3, 5)),
           corank=st.integers(0, 3), n=st.integers(0, 3),
           levels=st.sampled_from(
               [(s, t) for t in range(1, 5) for s in range(1, t + 1)]))
    def test_draws_match_randint_forms(self, seed, ell, corank, n, levels):
        # n = 0 has no legs, so no draw: f_st is the closed form
        s, t = levels
        A = CoLGroup(LModule(ell, corank))
        fast, slow = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert random_cogroup(fast, ell) == randint_random_cogroup(slow,
                                                                       ell)
        if n:
            assert (torsbis_maps(A, s, t, n, rng=fast).f_st
                    == randint_torsbis_f_st(A, s, t, n, slow))
        else:
            assert (torsbis_maps(A, s, t, n, rng=fast).f_st
                    == _unit_level_raising(ell, s, t))
        assert fast.getstate() == slow.getstate()

    @pytest.mark.parametrize("corank", [0, 1, 2])
    def test_negative_power_raises_before_any_draw(self, corank):
        rng = random.Random(7)
        state = rng.getstate()
        with pytest.raises(ValueError, match="negative tensor power"):
            torsbis_maps(CoLGroup(LModule(3, corank)), 1, 2, -1, rng=rng)
        assert rng.getstate() == state

    def test_random_cogroup_rejects_a_non_prime(self):
        with pytest.raises(ValueError, match="l must be prime, got 4"):
            random_cogroup(random.Random(0), 4)


class TestDirectSystem:
    """The torsion levels of a group as a direct system of finite modules."""

    def test_inclusions_injective(self):
        G = CoLGroup(LModule(3, 1, (2,)))
        inc = G.level_inclusion_matrix(1, 3)
        # injective on the finite level: kernel of the inclusion map trivial
        lm = LMap(G.level(1), G.level(3), inc)
        assert kernel(lm).domain.is_trivial

    def test_exponent_bound(self):
        G = CoLGroup(LModule(2, 1, (4, 2)))
        for s in range(1, 7):
            assert all(e <= s for e in G.level(s).torsion_exponents)


class TestFrob:
    def test_twist_composes_to_identity(self, monkeypatch):
        X = FrobObject(CoLGroup(LModule(3, 2)), IntMatrix.identity(2), 7)
        # no check reads qpow, so a twist proves nothing again
        checks, real = [], lprimary.rank_mod
        monkeypatch.setattr(lprimary, "rank_mod",
                            lambda rows, p: checks.append(p) or real(rows, p))
        assert X.twist(4).twist(-4) == X
        assert X.twist(-1).qpow == -1 and not checks
        FrobObject(X.carrier, X.matrix, 7, qpow=-1)  # the constructor checks
        assert checks == [3]
        monkeypatch.undo()
        # the constructor still rejects a matrix singular mod l
        with pytest.raises(ValueError, match="automorphism"):
            FrobObject(CoLGroup(LModule(3, 2)),
                       IntMatrix.from_rows([[1, 2], [2, 1]]), 7)

    def test_power_is_stored_unchecked_and_equals_the_checked_one(
            self, monkeypatch):
        # det(F^kron n) is a power of det(F), a unit mod l since X was
        # checked, so a box power proves nothing again
        X = FrobObject(CoLGroup(LModule(3, 2)),
                       IntMatrix.from_rows([[1, 1], [1, 2]]), 7, qpow=1)
        checks, real = [], lprimary.rank_mod
        monkeypatch.setattr(lprimary, "rank_mod",
                            lambda rows, p: checks.append(p) or real(rows, p))
        powers = [box_frob_power(X, n) for n in range(4)]
        assert not checks
        for n, Z in enumerate(powers):
            assert Z == FrobObject(box_power(X.carrier, n),
                                   matrix_power_kron(X.matrix, n), 7, n)
        assert checks == [3] * 4    # the constructor checks
        monkeypatch.undo()
        # and still rejects a matrix singular mod l
        with pytest.raises(ValueError, match="automorphism"):
            FrobObject(box_power(X.carrier, 2),
                       IntMatrix.identity(4).scale(3), 7)

    def test_twist_on_mu(self):
        # Frobenius on mu = Ql/Zl(1) is multiplication by q
        X = FrobObject(box_unit(3), IntMatrix.identity(1), 7, qpow=1)
        assert X.frob_minus_one_cleared().matrix.data == ((6,),)

    def test_negative_twist_exact(self):
        # 2^-1 F - 1 is the unit 2^-1 times F - 2: no modular inverse taken
        X = FrobObject(CoLGroup(LModule(5, 1)), IntMatrix.identity(1), 2,
                       qpow=-1)
        assert X.frob_minus_one_cleared().matrix.data == ((-1,),)

    @pytest.mark.parametrize("carrier", [
        CoLGroup(LModule(3, 0, (2,))), CoLGroup(LModule(3, 1, (1,)))])
    def test_rejects_finite_and_mixed_carriers(self, carrier):
        # neither admits one matrix acting on every torsion level
        with pytest.raises(ValueError, match="divisible carrier"):
            FrobObject(carrier, IntMatrix.identity(carrier.dual_module
                                                   .num_gens), 7)

    def test_box_frob_adds_twists(self):
        rng = random.Random(3)
        for _ in range(20):
            a = rng.randint(-2, 2)
            X = FrobObject(CoLGroup(LModule(3, 1)),
                           IntMatrix.from_rows([[2]]), 7, qpow=a)
            for n in range(4):
                Z = box_frob_power(X, n)
                assert Z.qpow == n * a
                assert Z.matrix.data == ((2 ** n,),)

    def test_mu_box_mu(self):
        # Ql/Zl(1) box Ql/Zl(1) = Ql/Zl(2)
        mu = FrobObject(box_unit(2), IntMatrix.identity(1), 7, qpow=1)
        sq = box_frob_power(mu, 2)
        assert sq.carrier == box_unit(2)
        assert sq.qpow == 2
        assert sq.matrix.data == ((1,),)

    def test_unit_neutral(self):
        X = FrobObject(CoLGroup(LModule(2, 2)),
                       IntMatrix.from_rows([[1, 1], [0, 1]], 2), 3, qpow=1)
        unit = box_frob_power(X, 0)
        assert unit.carrier == box_unit(2)
        assert unit.matrix == IntMatrix.identity(1) and unit.qpow == 0
        assert unit.matrix.kron(X.matrix) == X.matrix \
            == X.matrix.kron(unit.matrix)
        assert box_frob_power(X, 1) == X

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from((2, 3, 5)), st.integers(1, 3), st.integers(-2, 2),
           st.data())
    def test_power_matches_tensor_maps_route(self, ell, c, qpow, data):
        """One Kronecker power against n - 1 two-map tensor products."""
        rows = [[data.draw(st.integers(-4, 4)) for _ in range(c)]
                for _ in range(c)]
        for i in range(c):
            # a unit diagonal over an upper triangle is invertible mod l
            rows[i][i] = data.draw(st.integers(1, ell - 1))
            rows[i][:i] = [0] * i
        perm = data.draw(st.permutations(range(c)))
        X = FrobObject(CoLGroup(LModule(ell, c)),
                       IntMatrix.from_rows([rows[k] for k in perm], c), 7,
                       qpow=qpow)
        for n in range(4):
            assert box_frob_power(X, n) == tensor_maps_frob_power(X, n)

    def test_q_must_be_unit(self):
        with pytest.raises(ValueError, match="q=9 is not a unit at l=3"):
            FrobObject(CoLGroup(LModule(3, 1)), IntMatrix.identity(1), 9)

    def test_frobenius_must_be_invertible(self):
        with pytest.raises(ValueError):
            FrobObject(CoLGroup(LModule(3, 1)), IntMatrix.from_rows([[3]]), 7)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from((2, 3, 5, 7)), st.integers(1, 4), st.data())
    def test_automorphism_check_matches_determinant(self, ell, n, data):
        """Construction fails exactly when det is 0 or divisible by l."""
        entries = st.integers(-6, 6)
        rows = [[data.draw(entries) for _ in range(n)] for _ in range(n)]
        # besides plain draws: a row made from the others (det 0) and a
        # row scaled by l (l divides det)
        shape = data.draw(st.sampled_from(("plain", "dependent", "scaled")))
        if shape == "dependent":
            c = data.draw(entries)
            rows[-1] = [c * sum(col) for col in zip(*rows[:-1])] \
                if n > 1 else [0]
        elif shape == "scaled":
            rows[0] = [ell * x for x in rows[0]]
        M = IntMatrix.from_rows(rows, n)
        carrier = CoLGroup(LModule(ell, n))
        det = M.det()
        if det == 0 or det % ell == 0:
            with pytest.raises(ValueError,
                               match="^frobenius must be an automorphism "
                                     "at l$"):
                FrobObject(carrier, M, 11)
        else:
            assert FrobObject(carrier, M, 11).matrix == M


class TestSequenceTransform:
    """Boxing an exact sequence with a monomial in its own terms."""

    def test_divisible_mode_exact(self):
        # 0 -> Ql/Zl -> Ql/Zl + Z/l -> Z/l -> 0, the split sequence, boxed
        # with the empty monomial (the unit)
        A = box_unit(2)
        C = CoLGroup(LModule(2, 0, (1,)))
        _, ia, pc = split_ses(A, C)
        res, = left_exactness_probe(ia, pc, box_unit(2))
        assert res.left_exact and res.surjective

    def test_divisible_mode_higher_powers(self):
        A = box_unit(3)
        C = CoLGroup(LModule(3, 1))
        B, ia, pc = split_ses(A, C)
        for j in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]:
            X = box(box(box_power(A, j[0]), box_power(B, j[1])),
                    box_power(C, j[2]))
            res, = left_exactness_probe(ia, pc, X)
            assert res.left_exact and res.surjective

    def test_divisible_mode_nonsplit(self):
        # mult by l on Ql/Zl is a non-split exact sequence with divisible kernel
        # only after replacing the kernel: use 0 -> Ql/Zl ->(1,l) handled
        # instead through the mult-l sequence boxed with divisible A
        _, unit, iota, pi = mult_ell_ses(5)
        res, = left_exactness_probe(iota, pi, CoLGroup(LModule(5, 2)))
        assert res.left_exact and res.surjective

    def test_finite_mode_obstruction(self):
        # 0 -> Z/l -> Z/l^2 -> Z/l -> 0 boxed against its own first term:
        # the right end dies and the defect is the tor term Z/l
        ell = 2
        A = CoLGroup(LModule(ell, 0, (1,)))
        B = CoLGroup(LModule(ell, 0, (2,)))
        C = CoLGroup(LModule(ell, 0, (1,)))
        # dual side: Z/l <- Z/l^2 <- Z/l; inclusion dual is reduction (1),
        # projection dual is mult by l into Z/l^2
        iota = CoMap.from_dual_matrix(A, B, [[1]])
        pi = CoMap.from_dual_matrix(B, C, [[ell]])
        res, = left_exactness_probe(iota, pi, A)
        assert res.left_exact
        assert res.obstruction == CoLGroup(LModule(ell, 0, (1,)))
        assert tor_box(A, A) == CoLGroup(LModule(ell, 0, (1,)))
        # the two derived short sequences around the image I of the boxed
        # right map: 0 -> A box A -> B box A -> I -> 0 is exact, and
        # 0 -> I -> C box A -> J -> 0 has a finite defect J inside the tor term
        idA = CoMap.identity_on(A)
        bi, bp = box_maps(iota, idA), box_maps(pi, idA)
        img, proj_to_img = co_cokernel(bi)
        assert all(h.is_trivial for h in co_exactness([bi, proj_to_img]))
        assert img.dual_module == cokernel(kernel(bp.dual_map)).codomain
        assert res.obstruction.corank == 0
        je = res.obstruction.finite_exponents
        te = tor_box(A, A).finite_exponents
        assert len(je) <= len(te) and all(a <= b for a, b in zip(je, te))

    def test_finite_mode_trivial_monomial_stays_exact(self):
        # boxing with the unit changes nothing, defect trivial
        ell = 2
        A = CoLGroup(LModule(ell, 0, (1,)))
        B = CoLGroup(LModule(ell, 0, (2,)))
        C = CoLGroup(LModule(ell, 0, (1,)))
        iota = CoMap.from_dual_matrix(A, B, [[1]])
        pi = CoMap.from_dual_matrix(B, C, [[ell]])
        res, = left_exactness_probe(iota, pi, box_unit(ell))
        assert res.obstruction.is_trivial
        assert res.left_exact and res.surjective

    def test_degenerate_all_d(self):
        # the monomial with every exponent zero is the unit, so boxing it
        # with D gives D back
        unit = box_unit(5)
        D = CoLGroup(LModule(5, 2, (1,)))
        X = box(box(box(box_power(unit, 0), box_power(unit, 0)),
                    box_power(unit, 0)), D)
        assert X == D


class TestOracleCrossChecks:
    def test_box_of_finite_matches_order_formula(self):
        # |Z/l^a box Z/l^b| = l^min(a,b) pairwise, so orders multiply out
        rng = random.Random(77)
        for _ in range(10):
            ga = tuple(sorted((rng.randint(1, 3) for _ in range(2)),
                              reverse=True))
            gb = tuple(sorted((rng.randint(1, 3) for _ in range(2)),
                              reverse=True))
            A = CoLGroup(LModule(2, 0, ga))
            B = CoLGroup(LModule(2, 0, gb))
            got = 2 ** sum(box(A, B).dual_module.torsion_exponents)
            want = 2 ** sum(min(a, b) for a in ga for b in gb)
            assert got == want

    def test_level_structure_by_closure(self):
        A = CoLGroup(LModule(2, 1, (2, 1)))
        lvl = A.level(2)
        n = lvl.num_gens
        orders = [2 ** e for e in lvl.torsion_exponents]
        gens = []
        for i in range(n):
            v = [0] * n
            v[i] = 1
            gens.append(tuple(v))
        elems = subgroup_closure(orders, gens)
        assert group_structure(2, orders, elems) == lvl.torsion_exponents

    def test_box_maps_functorial(self):
        # (f box g) after (f' box g') = (f f') box (g g') on dual matrices
        # on divisible groups the dual matrix is the transpose of the level one
        A = CoLGroup(LModule(2, 2))
        f = CoMap.from_dual_matrix(A, A, [[1, 0], [1, 1]])
        g = CoMap.from_dual_matrix(A, A, [[1, 2], [0, 1]])
        lhs = box_maps(f, f).compose(box_maps(g, g))
        rhs = box_maps(f.compose(g), f.compose(g))
        assert lhs.dual_map == rhs.dual_map
