"""Cohomology over a finite base: Weil checks, vanishing probes, duality."""

import os
import sys
from fractions import Fraction
from math import comb, isqrt

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from devissage import exactlin, procyclic
from devissage.errors import InvalidInstance, VerificationFailed
from devissage.exactlin import (
    NULLITY_PRIME,
    CoLGroup,
    IntMatrix,
    LModule,
    SmithForm,
    adjugate,
    integer_kernel_basis,
)
from devissage.lprimary import FrobObject, cleared_minus_one
from devissage.procyclic import (
    KERNEL_DIM_CAP,
    WEIL_CATALOG,
    CharPoly,
    _box_nullity,
    _kernel_corank,
    _poly_gcd,
    _squarefree_part,
    box_torsion_frob,
    clear_memo,
    duality_crosscheck,
    eigenproduct_multiplicity,
    eigenproduct_poly,
    h1,
    matrix_power_kron,
    rational_root_multiplicity,
    torsion_frob,
    vanishing_probe,
    weil_weight_check,
)

from generators import matrix_power
from oracles import (
    box_twist_nullity,
    companion_matrix,
    float_root_tuple_count,
    fraction_eigenproduct_poly,
    fraction_root_multiplicity,
    hessenberg_box_nullity,
    integer_newton_eigenproduct_poly,
    rational_nullity,
    sympy_gcd_degree,
    sympy_is_squarefree,
    sympy_weil_check,
)

P_GENERIC = WEIL_CATALOG[0]      # T^2 - 2T + 5, q = 5
P_CM = WEIL_CATALOG[1]           # T^2 + 5, q = 5
P_QUARTIC = WEIL_CATALOG[6]      # (T^2 + 5)(T^2 - 2T + 5), q = 5
# squarefull but still pure of weight one: (T^2 - 2T + 5)^2, the E x E of
# a curve E, whose Frobenius matrix is two companion blocks of
# T^2 - 2T + 5, not the (non-semisimple) companion matrix of P
P_SQUARE = CharPoly((1, -4, 14, -20, 25), 5)
# genus 3 and genus 4 jacobians over F_5, squarefree and pure of weight one
P_GENUS_THREE = CharPoly((1, -6, 23, -60, 115, -150, 125), 5)
P_GENUS_FOUR = CharPoly((1, -4, 16, -44, 110, -220, 400, -500, 625), 5)


def entries(m):
    return [list(r) for r in m.data]


def is_squarefree(coeffs):
    """P equals its squarefree part up to a constant: procyclic's PRS route."""
    low = list(reversed(coeffs))
    return len(_squarefree_part(low)) == len(low)


def expanded(factors):
    """The product of Q^w over eigenproduct_poly's factors ((w, Q), ...),
    coefficients leading-first."""
    out = [1]
    for w, Q in factors:
        for _ in range(w):
            out = [sum(out[i] * Q[k - i] for i in range(len(out))
                       if 0 <= k - i < len(Q))
                   for k in range(len(out) + len(Q) - 1)]
    return tuple(out)


class TestCharPoly:
    def test_validation(self):
        with pytest.raises(InvalidInstance):
            CharPoly((1, 2, 3, 4), 5)          # odd degree
        with pytest.raises(InvalidInstance):
            CharPoly((2, 0, 5), 5)             # not monic
        with pytest.raises(InvalidInstance):
            CharPoly((1, 2, 0), 5)             # zero constant term
        with pytest.raises(InvalidInstance):
            CharPoly((1, 0, 5), 1)             # q too small

    def test_degree_bookkeeping(self):
        assert P_GENERIC.degree == 2 and P_GENERIC.g == 1
        assert P_QUARTIC.degree == 4 and P_QUARTIC.g == 2
        assert P_GENERIC.low_coeffs() == (5, -2, 1)

    def test_companion_satisfies_its_polynomial(self):
        # Horner on matrices: P(C) = 0
        for P in WEIL_CATALOG:
            C = P.frobenius_matrix()
            n = P.degree
            total = IntMatrix.identity(n).scale(P.coefficients[0])
            for c in P.coefficients[1:]:
                total = total @ C + IntMatrix.identity(n).scale(c)
            assert total == IntMatrix.zeros(n, n)

    def test_companion_charpoly_sympy(self):
        # independent route through sympy's characteristic polynomial
        for P in WEIL_CATALOG:
            C = sympy.Matrix(P.frobenius_matrix().data)
            lam = sympy.Symbol("lambda")
            got = sympy.Poly(C.charpoly(lam), lam).all_coeffs()
            assert tuple(int(c) for c in got) == P.coefficients

    def test_power_sums_frozen(self):
        # roots of T^2 - 2T + 5 are 1 +- 2i; sums of k-th powers by hand
        assert P_GENERIC.power_sums(4) == [2, -6, -22, -14]

    def test_power_sums_match_traces(self):
        # trace of C^k is an independent route to the same numbers
        for P in WEIL_CATALOG:
            C = P.frobenius_matrix()
            n = P.degree
            for k, tk in enumerate(P.power_sums(6), start=1):
                Ck = matrix_power(C, k)
                assert sum(Ck.data[i][i] for i in range(n)) == tk

    def test_squarefree_detection(self):
        for P in WEIL_CATALOG + (P_SQUARE,):
            assert is_squarefree(P.coefficients) == sympy_is_squarefree(
                P.coefficients)
        assert not is_squarefree(P_SQUARE.coefficients)


class TestWeilCheck:
    def test_catalog_is_admissible(self):
        for P in WEIL_CATALOG:
            assert weil_weight_check(P)

    def test_split_polynomial_rejected(self):
        # T^2 - 6T + 5 = (T-1)(T-5) satisfies the functional equation but
        # its roots sit at moduli 1 and 5, not sqrt 5
        assert not weil_weight_check(CharPoly((1, -6, 5), 5))

    def test_functional_equation_failure(self):
        assert not weil_weight_check(CharPoly((1, -2, 7), 5))
        assert not weil_weight_check(CharPoly((1, 2, 0, 5, 25), 5))

    def test_square_is_still_pure(self):
        # repeated roots on the critical circle are allowed
        assert weil_weight_check(P_SQUARE)

    def test_self_reciprocity_invariance(self):
        # P |-> T^2g P(q/T) / q^g fixes exactly the functional-equation
        # polynomials; when the image is integral the verdict must agree
        cases = list(WEIL_CATALOG) + [
            CharPoly((1, -6, 5), 5),
            CharPoly((1, 2, 0, 5, 25), 5),
        ]
        from fractions import Fraction
        for P in cases:
            g, q = P.g, P.q
            low = P.low_coeffs()
            rev = []
            for i in range(P.degree + 1):
                num = Fraction(low[P.degree - i]) * Fraction(q) ** (g - i)
                if num.denominator == 1:
                    rev.append(int(num))
                else:
                    rev = None
                    break
            if rev is None or rev[-1] != 1:
                continue
            Q = CharPoly(tuple(reversed(rev)), q)
            assert weil_weight_check(Q) == weil_weight_check(P)


def poly_mul(a, b):
    """Product of two coefficient lists, low degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def weil_poly(h, q):
    """Leading-first coefficients of P(T) = T^g h(T + q/T), h low first."""
    g = len(h) - 1
    P = [0] * (2 * g + 1)
    for d, hd in enumerate(h):
        # T^(g-d) (T^2 + q)^d
        for i in range(d + 1):
            P[g - d + 2 * i] += hd * comb(d, i) * q ** (d - i)
    return tuple(reversed(P))


@st.composite
def weil_candidates(draw):
    """(coefficients, q) of T^g h(T + q/T) for h of degree 1..4.

    h is a product of factors u - a with a inside, on the edge of or just
    outside [-2 sqrt q, 2 sqrt q], and of random quadratics, each taken once
    or twice.  For a square q the edge factor puts a root of h on an
    endpoint.  Sometimes h's constant term is shifted (P keeps its
    functional equation) or P's constant term is (it loses it).
    """
    q = draw(st.sampled_from((2, 3, 4, 5, 7, 9, 16, 25)))
    edge = isqrt(4 * q)  # the largest a with a^2 <= 4q
    h, degree = [1], draw(st.integers(1, 4))
    while len(h) - 1 < degree:
        kind = draw(st.sampled_from(("inside", "edge", "outside", "quad")))
        if kind == "quad":
            factor = [draw(st.integers(-2 * q, 2 * q)),
                      draw(st.integers(-edge, edge)), 1]
        else:
            a = (draw(st.integers(-edge, edge)) if kind == "inside"
                 else draw(st.sampled_from((-1, 1))) * (
                     edge + (kind == "outside")))
            factor = [-a, 1]
        for _ in range(draw(st.integers(1, 2))):
            h = poly_mul(h, factor)
    h[0] += draw(st.sampled_from((0, 0, 0, -1, 1)))
    coeffs = list(weil_poly(h, q))
    coeffs[-1] += draw(st.sampled_from((0, 0, 0, 0, 1)))
    return tuple(coeffs), q


@st.composite
def monic_even_polys(draw):
    """Leading-first monic integer polynomials of even degree with a nonzero
    constant term: products of random factors, some repeated."""
    nonzero = st.integers(-4, 4).filter(bool)
    p = [1]
    for _ in range(draw(st.integers(1, 3))):
        middle = [draw(st.integers(-4, 4))] if draw(st.booleans()) else []
        factor = [draw(nonzero)] + middle + [1]
        for _ in range(draw(st.integers(1, 2))):
            p = poly_mul(p, factor)
    if (len(p) - 1) % 2:
        p = poly_mul(p, [draw(nonzero), 1])
    return tuple(reversed(p))


def int_polys():
    """Nonzero integer polynomials of degree 0..3, low degree first."""
    return st.builds(lambda low, top: low + [top],
                     st.lists(st.integers(-5, 5), max_size=3),
                     st.integers(-5, 5).filter(bool))


class TestSympyDifferential:
    """The integer PRS and Sturm routes against sympy."""

    def test_endpoint_roots(self):
        # q = 4: roots of h on -4, on 4, on both; then just outside
        assert weil_weight_check(CharPoly((1, -4, 4), 4))    # h = u - 4
        assert weil_weight_check(CharPoly((1, 4, 4), 4))     # h = u + 4
        assert weil_weight_check(CharPoly((1, 0, -8, 0, 16), 4))
        assert not weil_weight_check(CharPoly((1, -5, 4), 4))
        assert not weil_weight_check(CharPoly((1, 5, 4), 4))
        # supersingular (T^2 + q)^k: h = u^k
        for k in (1, 2, 3):
            coeffs = weil_poly([0] * k + [1], 7)
            assert weil_weight_check(CharPoly(coeffs, 7))

    @settings(max_examples=150, deadline=None)
    @given(weil_candidates())
    @example(((1, -4, 4), 4))
    @example(((1, 4, 4), 4))
    @example(((1, 0, -8, 0, 16), 4))
    @example(((1, 0, 18, 0, 81), 9))
    @example(((1, -6, 5), 5))
    def test_weil_check_matches_sympy(self, case):
        coeffs, q = case
        assert (weil_weight_check(CharPoly(coeffs, q))
                == sympy_weil_check(coeffs, q))

    @settings(max_examples=150, deadline=None)
    @given(monic_even_polys())
    @example(P_SQUARE.coefficients)
    def test_squarefree_matches_sympy(self, coeffs):
        assert is_squarefree(coeffs) == sympy_is_squarefree(coeffs)

    @settings(max_examples=100, deadline=None)
    @given(int_polys(), int_polys(), int_polys())
    def test_gcd_degree_matches_sympy(self, a, b, c):
        # a common factor c of random degree, not monic, low degree first
        a, b = poly_mul(a, c), poly_mul(b, c)
        want = sympy_gcd_degree(a[::-1], b[::-1])
        assert len(_poly_gcd(a, b)) - 1 == want

    @pytest.mark.parametrize("P", WEIL_CATALOG + (
        CharPoly((1, -6, 23, -60, 115, -150, 125), 5),
        CharPoly((1, 1, 5), 5), P_SQUARE))
    def test_adjugate_matches_sympy(self, P):
        C = P.frobenius_matrix()
        assert entries(adjugate(C)) == sympy.Matrix(entries(C)).adjugate(
            ).tolist()

    def test_adjugate_is_verified(self, monkeypatch):
        monkeypatch.setattr(exactlin, "solve_integer", lambda A, B: B)
        with pytest.raises(VerificationFailed):
            adjugate(P_GENERIC.frobenius_matrix())


class TestFrobConstructors:
    def test_torsion_frob_genus_one(self):
        X = torsion_frob(P_GENERIC, 2)
        assert X.carrier.is_divisible and X.carrier.corank == 2
        # q C^{-T} with det C = q: the adjugate transpose, no q left over
        assert entries(X.matrix) == [[2, -1], [5, 0]]
        assert X.qpow == 0

    def test_torsion_frob_genus_two(self):
        X = torsion_frob(P_QUARTIC, 3)
        assert X.carrier.corank == 4
        assert X.qpow == -1
        # det of the stored matrix is det(C)^{2g-1} = q^{g(2g-1)}, a unit at l
        assert X.matrix.det() == 5 ** 6

    def test_base_mismatch(self):
        with pytest.raises(ValueError, match="l = 5 divides q"):
            torsion_frob(P_GENERIC, 5)

    def test_box_torsion_frob_bookkeeping(self):
        X = box_torsion_frob(P_GENERIC, 3, 2, -1)
        assert X.carrier.corank == 4
        # the twist adds to the q-power, 2 * (1 - g) = 0 for g = 1
        assert X.qpow == -1
        Y = box_torsion_frob(P_QUARTIC, 3, 2, 0)
        # q-powers add under box: 2 * (1 - g) for g = 2
        assert Y.qpow == -2


class TestCohomology:
    def test_h1_trivial_action(self):
        # F - 1 = 0 on the dual lattice: every class is co-fixed
        for n in (1, 2, 3):
            for q in (3, 5):
                X = FrobObject(CoLGroup(LModule(2, n)), IntMatrix.identity(n),
                               q)
                assert h1(X) == CoLGroup(LModule(2, n))

    def test_torsion_point_cohomology(self):
        # det(F - 1) = P(1) = 4 != 0: the divisible carrier has trivial h1
        X = torsion_frob(P_GENERIC, 2)
        assert h1(X).is_trivial
        assert h1(X).corank == 0

    def test_corank_flags_on_boundary_object(self):
        X = box_torsion_frob(P_GENERIC, 3, 2, -1)
        assert h1(X).corank == 2

class TestLevels:
    def test_level_colimit_collapse(self):
        # every finite level sees coker classes that the colimit kills:
        # transition maps divide, so the direct limit is trivial even
        # though det(F-1) = 4 is not a 2-adic unit; coker(F - 1 mod 2^s)
        # is read off the elementary divisors of F - 1, as the bhn suite does
        X = torsion_frob(P_GENERIC, 2)
        assert h1(X).is_trivial
        minus_one = SmithForm.of(X.frob_minus_one_cleared().matrix)
        for s in (1, 2, 3):
            assert minus_one.orders(2, s)


class TestEigenproduct:
    def test_degenerate_powers(self):
        assert expanded(eigenproduct_poly(P_GENERIC, 0)) == (1, -1)
        for P in WEIL_CATALOG:
            assert expanded(eigenproduct_poly(P, 1)) == P.coefficients

    def test_square_product_frozen(self):
        # pair products of the roots 1 +- 2i: 5, 5, -3 +- 4i, so
        # (x^2 - 10x + 25)(x^2 + 6x + 25) expanded by hand
        assert expanded(eigenproduct_poly(P_GENERIC, 2)) \
            == (1, -4, -10, -100, 625)

    def test_shape_invariants(self):
        for P in (P_GENERIC, P_CM):
            for j in (1, 2, 3):
                Q = expanded(eigenproduct_poly(P, j))
                n = P.degree
                assert len(Q) == n ** j + 1
                assert Q[0] == 1
                # trace and norm of the product multiset in closed form
                t1 = -P.coefficients[1]
                assert Q[1] == -(t1 ** j)
                c = P.coefficients[-1]
                assert Q[-1] == c ** (j * n ** (j - 1))

    @pytest.mark.parametrize("P", WEIL_CATALOG)
    def test_newton_step_matches_term_by_term(self, P):
        # every box power the vanishing suite reaches, the quartic's
        # j = 4 (degree 256) among them
        for j in range(5):
            assert expanded(eigenproduct_poly.__wrapped__(P, j)) == \
                integer_newton_eigenproduct_poly(P, j), j

    def test_root_multiplicity(self):
        # (x - 2)^2 (x - 3) = x^3 - 7x^2 + 16x - 12
        assert rational_root_multiplicity((1, -7, 16, -12), 2) == 2
        assert rational_root_multiplicity((1, -7, 16, -12), 3) == 1
        assert rational_root_multiplicity((1, -7, 16, -12), 5) == 0

    def test_multiplicity_table_genus_one(self):
        table = {(0, 0): 1, (1, 0): 0, (2, -1): 2, (2, 0): 0, (2, 1): 0,
                 (3, -1): 0, (4, -2): 6, (4, -1): 0}
        for (j, r), want in table.items():
            assert eigenproduct_multiplicity(P_GENERIC, j, r) == want

    def test_multiplicity_special_shapes(self):
        # T^2 + 5 has roots +-i sqrt 5 whose fourth powers equal 25, so the
        # boundary slot picks up two extra tuples beyond the generic six
        assert eigenproduct_multiplicity(P_CM, 2, -1) == 2
        assert eigenproduct_multiplicity(P_CM, 4, -2) == 8
        # the quartic splits as (T^2+5)(T^2-2T+5): 24 mixed tuples, twice
        # 6 from the halves, twice 1 from the quartic roots of 25
        assert eigenproduct_multiplicity(P_QUARTIC, 2, -1) == 4
        assert eigenproduct_multiplicity(P_QUARTIC, 4, -2) == 38

    def test_negative_target_power(self):
        # products of algebraic integers cannot be a negative power of q
        assert eigenproduct_multiplicity(P_GENERIC, 1, -2) == 0
        assert eigenproduct_multiplicity(P_GENERIC, 2, -3) == 0

    def test_multiplicity_against_rational_nullity(self):
        # independent route: nullity of C kron C - q over Q
        for P in (P_GENERIC, P_CM, WEIL_CATALOG[4]):
            C = P.frobenius_matrix()
            n = P.degree
            CC = C.kron(C)
            rows = [[CC.data[i][j] - (P.q if i == j else 0)
                     for j in range(n * n)] for i in range(n * n)]
            assert rational_nullity(rows, n * n) == \
                eigenproduct_multiplicity(P, 2, -1)


class TestVanishing:
    def test_gates(self):
        with pytest.raises(InvalidInstance, match="not pure of weight 1"):
            vanishing_probe(CharPoly((1, -6, 5), 5), 2, 1, 0)
        with pytest.raises(ValueError, match="l = 5 divides q"):
            vanishing_probe(P_GENERIC, 5, 1, 0)
        with pytest.raises(InvalidInstance, match="non-negative"):
            vanishing_probe(P_GENERIC, 3, -1, 0)

    def test_vanishing_slots(self):
        assert vanishing_probe(P_GENERIC, 3, 1, 0) == 0

    def test_boundary_slot(self):
        # j = -2r, the minus boundary
        assert vanishing_probe(P_GENERIC, 3, 2, -1) == 2

    def test_both_sign_variants_probed(self):
        # the probe reports both sign conventions without privileging one:
        # only the minus slot actually hits
        assert vanishing_probe(P_GENERIC, 3, 2, 1) == 0
        # j = 0 = r sits on both boundaries
        assert vanishing_probe(P_GENERIC, 3, 0, 0) == 1

    def test_verdict_is_ell_independent(self):
        for j, r in [(2, -1), (3, 0), (4, -2)]:
            coranks = {vanishing_probe(P_GENERIC, ell, j, r)
                       for ell in (2, 3, 7)}
            assert len(coranks) == 1

    def test_hit_iff_minus_boundary(self):
        # modulus q^(j/2) of every product forces r = -j/2 for a hit, and
        # conjugate pairs always realize it
        for P in WEIL_CATALOG:
            ell = 3 if P.q % 3 else 7
            for j in range(4):
                for r in (-2, -1, 0, 1):
                    corank = vanishing_probe(P, ell, j, r)
                    assert (corank > 0) == (j == -2 * r)

    def test_large_power_skips_crosscheck(self, kernel_calls):
        # dimension 4^4 = 256 is above KERNEL_DIM_CAP
        assert vanishing_probe(P_QUARTIC, 3, 4, -2) == 38
        assert kernel_calls == []

    def test_squarefull_takes_the_shape_route(self, kernel_calls):
        # Frobenius is semisimple, so each root of T^2 - 2T + 5 counts
        # twice: 2^j times the genus-one count, crosschecked by the kernel
        # at dimension 16 and not at 256
        assert vanishing_probe(P_SQUARE, 3, 2, -1) == 8
        assert len(kernel_calls) >= 1
        assert vanishing_probe(P_SQUARE, 3, 1, 0) == 0
        kernel_calls.clear()
        assert vanishing_probe(P_SQUARE, 3, 4, -2) == 2 ** 4 * 6
        assert kernel_calls == []

    def test_ell_is_checked_at_every_size(self):
        # j = 4 puts P_QUARTIC at dimension 256, past the kernel route
        assert P_QUARTIC.degree ** 4 > KERNEL_DIM_CAP
        for probe in (vanishing_probe, duality_crosscheck):
            with pytest.raises(ValueError, match="l must be prime, got 4"):
                probe(P_QUARTIC, 4, 4, -2)
            with pytest.raises(ValueError, match="l = 5 divides q"):
                probe(P_QUARTIC, 5, 4, -2)
            # 2^7 = 128 and 2 divides the constant term 6
            with pytest.raises(ValueError, match="automorphism"):
                probe(C0_SIX, 2, 7, 0)


@pytest.fixture
def kernel_calls(monkeypatch):
    """The arguments of every _kernel_corank call, the kernel crosscheck."""
    calls = []
    real = procyclic._kernel_corank

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(procyclic, "_kernel_corank", counted)
    return calls


class TestDuality:
    def test_trivial_slot(self):
        d = duality_crosscheck(P_GENERIC, 3, 0, 0)
        assert d.left_corank == 1 and d.right_corank == 1
        assert d.levels_agree

    def test_silent_slot(self):
        d = duality_crosscheck(P_GENERIC, 2, 1, 1)
        assert d.left_corank == 0 and d.right_corank == 0
        assert d.levels_agree

    def test_matching_growth(self):
        d = duality_crosscheck(P_GENERIC, 2, 2, -1)
        assert d.left_corank == 2 and d.right_corank == 2
        assert d.left_method == "kernel" and d.right_method == "kernel"
        assert d.levels_agree

    def test_large_instance_shares_the_root_route(self):
        d = duality_crosscheck(P_QUARTIC, 3, 4, -2)
        assert d.left_method == "eigenproduct"
        assert d.right_method == "eigenproduct-shared"
        assert d.left_corank == d.right_corank == 38 and d.levels_agree

    def test_repeated_roots_share_the_root_route(self):
        # the shape count is exact for a semisimple Frobenius, so above the
        # cap a repeated-root P shares it like any other
        d = duality_crosscheck(P_SQUARE, 3, 4, -2)
        assert d.left_method == "eigenproduct"
        assert d.right_method == "eigenproduct-shared"
        assert d.left_corank == d.right_corank == 96 and d.levels_agree
        d = duality_crosscheck(P_SQUARE, 3, 2, -1)
        assert d.left_method == d.right_method == "kernel"
        assert d.left_corank == d.right_corank == 8

    def test_sweep_agreement(self):
        for P in WEIL_CATALOG:
            ell = 3 if P.q % 3 else 7
            for j in (0, 1, 2):
                for r in (-1, 0, 1):
                    d = duality_crosscheck(P, ell, j, r)
                    assert d.levels_agree


def monic_polys():
    """Random monic integer CharPoly, not necessarily of Weil type."""
    return st.builds(
        lambda deg, mid, c0, q: CharPoly((1,) + tuple(mid[:deg - 1]) + (c0,),
                                         q),
        st.sampled_from((2, 4)),
        st.lists(st.integers(-6, 6), min_size=3, max_size=3),
        st.integers(-30, 30).filter(bool),
        st.sampled_from((2, 3, 4, 5, 7, 9)))


def outcome(fn, *args):
    """The value of fn(*args), or the type of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


def uncached_corank(P, ell, j, r):
    X = box_torsion_frob(P, ell, j, r)
    return integer_kernel_basis(
        cleared_minus_one(X.matrix.transpose(), X.q, X.qpow)).cols


def uncached_duality(P, ell, j, r):
    left = uncached_corank(P, ell, j, r)
    # the Tate side by Fraction elimination: q^a C^kron j - 1, a = -j - r
    big = matrix_power_kron(P.frobenius_matrix(), j)
    a = -j - r
    n = big.rows
    rows = [[big.data[i][k] * P.q ** max(a, 0)
             - (P.q ** max(-a, 0) if i == k else 0) for k in range(n)]
            for i in range(n)]
    right = rational_nullity(rows, n)
    return left, right, left == right


ELLS = (2, 3, 4, 5, 7)
# 2 and 3 divide the constant term, 7 divides q and 4 is not prime
C0_SIX = CharPoly((1, 1, 6), 7)


@st.composite
def shuffled_grid(draw):
    """One polynomial's (P, l, j, r) cases over every l, in random order."""
    P = draw(st.one_of(monic_polys(), st.sampled_from(WEIL_CATALOG[:6]),
                       st.just(C0_SIX), st.just(P_SQUARE)))
    jmax = 2 if P.degree == 4 else 3
    slots = draw(st.lists(st.tuples(st.integers(0, jmax), st.integers(-2, 2)),
                          min_size=2, max_size=3, unique=True))
    return draw(st.permutations(
        [(P, ell, j, r) for j, r in slots for ell in ELLS]))


def integer_root_polys():
    """Monic CharPoly of degree 2 or 4 with distinct roots among +-1, +-q
    and q^2, whose j-fold products often hit the targets q^(j+r)."""
    return st.builds(
        lambda q, roots: CharPoly(
            expanded((1, (1, -sign * q ** e)) for sign, e in roots), q),
        st.sampled_from((2, 3, 5)),
        st.sampled_from((2, 4)).flatmap(lambda deg: st.lists(
            st.sampled_from(((1, 0), (-1, 0), (1, 1), (-1, 1), (1, 2))),
            min_size=deg, max_size=deg, unique=True)))


@st.composite
def weil_quadratic_products(draw):
    """CharPoly products of one to three Weil quadratics T^2 - aT + q,
    a^2 < 4q, each taken one to three times, of degree at most 8."""
    q = draw(st.sampled_from((2, 3, 5)))
    edge = isqrt(4 * q - 1)
    factors, degree = [], 0
    for _ in range(draw(st.integers(1, 3))):
        w = draw(st.integers(1, 3))
        if degree + 2 * w > 8:
            break
        factors.append((w, (1, -draw(st.integers(-edge, edge)), q)))
        degree += 2 * w
    return CharPoly(expanded(factors), q)


def evaluate_at(coeffs, M):
    """The polynomial with leading-first coefficients coeffs at M, over Z."""
    n = M.rows
    total = IntMatrix.zeros(n, n)
    for c in coeffs:
        total = total @ M + IntMatrix.identity(n).scale(int(c))
    return total


class TestFrobeniusMatrix:
    """The semisimple Frobenius matrix: companions of rad P, rad(P / rad P),
    ... on the block diagonal."""

    @settings(max_examples=60, deadline=None)
    @given(monic_even_polys())
    @example(P_SQUARE.coefficients)
    @example(weil_poly([0, 0, 0, 1], 5))  # (T^2 + 5)^3
    def test_charpoly_and_radical_witness(self, coeffs):
        # charpoly P by sympy, and rad P (sympy's squarefree part) kills
        # the matrix over Z, so its minimal polynomial has distinct roots;
        # the same witness fails on the companion exactly when P repeats
        M = CharPoly(coeffs, 2).frobenius_matrix()
        lam = sympy.Symbol("lambda")
        got = sympy.Poly(sympy.Matrix(entries(M)).charpoly(lam), lam)
        assert tuple(int(c) for c in got.all_coeffs()) == coeffs
        rad = sympy.Poly(coeffs, lam).sqf_part().all_coeffs()
        zero = IntMatrix.zeros(M.rows, M.rows)
        assert evaluate_at(rad, M) == zero
        companion = companion_matrix(CharPoly(coeffs, 2))
        assert (evaluate_at(rad, companion) == zero) == \
            sympy_is_squarefree(coeffs)

    @pytest.mark.parametrize("P", WEIL_CATALOG)
    def test_catalog_matrix_is_the_companion(self, P):
        assert P.frobenius_matrix() == companion_matrix(P)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(monic_polys(), integer_root_polys(),
                     monic_even_polys().map(lambda c: CharPoly(c, 2))).filter(
        lambda P: sympy_is_squarefree(P.coefficients)))
    def test_squarefree_matrix_is_the_companion(self, P):
        assert P.frobenius_matrix() == companion_matrix(P)

    @settings(max_examples=25, deadline=None)
    @given(weil_quadratic_products())
    @example(P_SQUARE)
    def test_shape_count_matches_kernel_ranks(self, P):
        # the integer kernel ranks of the box power and of the Tate side's
        # Kronecker power, built afresh, against the shape count, at the
        # two twists next to the boundary r = -j/2
        C = P.frobenius_matrix()
        j = 0
        while P.degree ** j <= KERNEL_DIM_CAP:
            for r in (-(j // 2), -(j // 2) - 1):
                want = eigenproduct_multiplicity(P, j, r)
                assert uncached_corank(P, 7, j, r) == want, (j, r)
                tate = cleared_minus_one(matrix_power_kron(C, j), P.q, -j - r)
                assert integer_kernel_basis(tate).cols == want, (j, r)
            j += 1


class TestEigenproductByShape:
    """The factors by exponent shape against the composed power of degree
    d^j that they replace (oracles.integer_newton_eigenproduct_poly)."""

    @staticmethod
    def assert_matches_oracle(P, jmax=4):
        for j in range(jmax + 1):
            factors = eigenproduct_poly(P, j)
            assert sum(w * (len(Q) - 1) for w, Q in factors) \
                == P.degree ** j
            full = integer_newton_eigenproduct_poly(P, j)
            for r in range(-3, 4):
                want = rational_root_multiplicity(
                    full, Fraction(P.q) ** (j + r))
                assert eigenproduct_multiplicity(P, j, r) == want, (j, r)

    @pytest.mark.parametrize("P", WEIL_CATALOG)
    def test_catalog(self, P):
        self.assert_matches_oracle(P)

    @settings(max_examples=30, deadline=None)
    @given(P=st.one_of(monic_polys(), integer_root_polys()))
    def test_random_squarefree(self, P):
        # drawn with or without repeated roots: the shape count is exact
        # for every P
        self.assert_matches_oracle(P)

    @pytest.mark.parametrize("P, want", [(P_GENUS_THREE, 92),
                                         (P_GENUS_FOUR, 254)])
    def test_high_genus_against_root_tuples(self, P, want):
        assert sympy_is_squarefree(P.coefficients) and weil_weight_check(P)
        assert eigenproduct_multiplicity(P, 4, -2) == want
        for j, r in ((2, -1), (3, -1), (4, -2), (4, -1)):
            assert eigenproduct_multiplicity(P, j, r) == \
                float_root_tuple_count(P.coefficients, j, P.q ** (j + r))


class TestMemoAgainstSlowRoutes:
    @settings(max_examples=40, deadline=None)
    @given(P=monic_polys(), j=st.integers(0, 3))
    def test_integer_newton_matches_fractions(self, P, j):
        assert expanded(eigenproduct_poly(P, j)) \
            == fraction_eigenproduct_poly(P, j)

    @settings(max_examples=80, deadline=None)
    @given(roots=st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 4)),
                          max_size=4),
           extra=st.lists(st.integers(-5, 5), min_size=1, max_size=4),
           target=st.one_of(st.integers(-6, 6),
                            st.builds(Fraction, st.integers(-6, 6),
                                      st.integers(1, 4))))
    def test_root_multiplicity_matches_fractions(self, roots, extra, target):
        # a product of factors (b x - a) times a random integer polynomial
        coeffs = extra
        for a, b in roots + [(target.numerator, target.denominator)] * 2:
            coeffs = [b * x - a * y
                      for x, y in zip(coeffs + [0], [0] + coeffs)]
        want = fraction_root_multiplicity(coeffs, target)
        assert want >= 2
        assert rational_root_multiplicity(tuple(coeffs), target) == want

    @settings(max_examples=25, deadline=None)
    @given(shuffled_grid())
    # memo hits before the l checks that must still fail
    @example([(C0_SIX, ell, 2, -1) for ell in (5, 2, 3, 7, 4)])
    # slots that differ in only j or only r, and in their coranks
    @example([(P_GENERIC, ell, j, r) for j, r in ((2, -1), (1, -1), (2, 0))
              for ell in (2, 3)])
    def test_memo_matches_uncached_route(self, cases):
        clear_memo()
        for P, ell, j, r in cases:
            assert outcome(_kernel_corank, P, ell, j, r) == \
                outcome(uncached_corank, P, ell, j, r)
            want = outcome(uncached_duality, P, ell, j, r)
            got = outcome(duality_crosscheck, P, ell, j, r)
            if isinstance(want, type):
                assert got is want
            else:
                assert (got.left_corank, got.right_corank,
                        got.levels_agree) == want


@pytest.fixture
def exact_route(monkeypatch):
    """The dimensions of the matrices whose exact Bareiss rank is taken,
    in call order: the twist nullity's route where the rank mod p is
    short."""
    dims = []
    real = IntMatrix.rank

    def counted(A):
        dims.append(A.rows)
        return real(A)
    monkeypatch.setattr(IntMatrix, "rank", counted)
    return dims


class TestTwistFamilies:
    """One box power per (P, j), read at every twist by one sparse rank mod
    NULLITY_PRIME and an exact Bareiss rank where that rank is short,
    against the box power built for each twist alone and against the
    Hessenberg route it replaced (oracles.hessenberg_box_nullity)."""

    def test_vanishing_grid_matches_per_twist_route(self, exact_route):
        # the grid of the vanishing suite, plus a repeated-root P whose
        # boundary twists have a short rank mod p and take the exact route
        calls = 0
        for P in WEIL_CATALOG + (P_SQUARE,):
            exact_before = len(exact_route)
            for ell in (2, 3, 5, 7):
                if P.q % ell == 0:
                    continue
                clear_memo()  # each l builds the families afresh
                for j in range(5):
                    if P.degree ** j > KERNEL_DIM_CAP:
                        break
                    for r in range(-3, 4):
                        calls += 1
                        assert _box_nullity(P, ell, j, r) \
                            == box_twist_nullity(P, ell, j, r) \
                            == hessenberg_box_nullity(P, ell, j, r), \
                            (P, ell, j, r)
        # both routes ran, the exact one on P_SQUARE too
        assert exact_before < len(exact_route) < calls

    def test_q_equal_to_the_nullity_prime_takes_the_exact_route(
            self, exact_route):
        # p | q: q^-a has no residue mod p for a > 0, so every twist goes
        # to the integer kernel
        P = CharPoly((1, 0, NULLITY_PRIME), NULLITY_PRIME)
        clear_memo()
        for j in range(3):
            for r in range(-3, 4):
                assert _box_nullity(P, 3, j, r) == \
                    box_twist_nullity(P, 3, j, r), (j, r)
        assert len(exact_route) == 3 * 7


class TestTatePowers:
    def test_one_kronecker_power_per_polynomial_and_j(self, monkeypatch):
        """A vanishing run on g1_swap builds C^kron j once per (C, j), which
        the Tate ranks of every twist share."""
        from devissage import cli
        built = []
        real = procyclic.matrix_power_kron

        def counted(m, j):
            built.append((m.data, j))
            return real(m, j)
        monkeypatch.setattr(procyclic, "matrix_power_kron", counted)
        fixture = os.path.join(os.path.dirname(__file__), os.pardir,
                               "fixtures", "g1_swap.json")
        code, _ = cli.run(cli.RunConfig(fixture, suites=("vanishing",)))
        assert code == 0
        assert len(built) == len(set(built)) == 34

    def test_residue_rows_once_per_family_and_no_dense_shift(
            self, monkeypatch, exact_route):
        """A vanishing run on g1_swap builds the residue rows of each box
        power and each C^kron j once, and a twist of full rank mod p builds
        no dense shift matrix and adds no matrices."""
        from devissage import cli
        built, dense, full_rank = [], [], []
        real_twist = procyclic._twist_nullity
        real_rows = IntMatrix.residue_rows
        real_diagonal, real_add = IntMatrix.diagonal, IntMatrix.__add__

        def rows(M, p):
            # FrobObject's checks take the rows mod l
            if p == NULLITY_PRIME:
                caller = sys._getframe(1)
                P, j = caller.f_locals["P"], caller.f_locals["j"]
                built.append((caller.f_code.co_name, P.coefficients, P.q, j))
            return real_rows(M, p)

        def twist(*args):
            dense_before, exact_before = len(dense), len(exact_route)
            nullity = real_twist(*args)
            if len(exact_route) == exact_before:
                full_rank.append(len(dense) - dense_before)
            return nullity
        monkeypatch.setattr(IntMatrix, "residue_rows", rows)
        monkeypatch.setattr(procyclic, "_twist_nullity", twist)
        monkeypatch.setattr(IntMatrix, "diagonal", staticmethod(
            lambda entries: dense.append(1) or real_diagonal(entries)))
        monkeypatch.setattr(IntMatrix, "__add__",
                            lambda A, B: dense.append(1) or real_add(A, B))
        fixture = os.path.join(os.path.dirname(__file__), os.pardir,
                               "fixtures", "g1_swap.json")
        code, _ = cli.run(cli.RunConfig(fixture, suites=("vanishing",)))
        assert code == 0
        assert len(built) == len(set(built)) == 68
        assert sorted(side for side, *_ in built) \
            == ["_box_family"] * 34 + ["_tate_power"] * 34
        # both routes ran, and no full-rank twist touched a dense matrix
        assert exact_route and full_rank and not any(full_rank)

