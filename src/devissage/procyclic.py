"""Cohomology over a finite base field, modeled by its Frobenius.

The absolute Galois group of a finite field is procyclic with a canonical
topological generator, so cohomology of any of our coefficient objects is
just kernel and cokernel of (Frobenius - 1); everything in degree >= 2
vanishes.  The base field never appears as field elements: it is the pair
(q, Frobenius action).

Weil-weight bookkeeping is exact.  A characteristic polynomial passes the
weight-1 test iff it satisfies the q-functional equation and its associated
real polynomial (in u = T + q/T) has all roots real in [-2 sqrt q, 2 sqrt q];
the interval test is a Sturm count over Z, evaluated exactly at +-2 sqrt q.

Vanishing questions for box powers reduce to: does some j-fold product of
roots of P equal q^(j+r)?  The (2g)^j products fall into one small factor
per exponent shape (a partition of j), whose power sums come from those of
P by Moebius inversion and whose coefficients come from Newton's identities.
The weighted multiplicities of the integer target as a root of the factors
sum to the corank of H^1, which vanishing_probe returns, exactly for every
P, because Frobenius acts semisimply (CharPoly.frobenius_matrix).

None of this depends on l, so each such result is memoized for the length
of one CLI run (clear_memo); the one check on l (_check_ell) runs first at
every entry, at every matrix size.
The kernel crosscheck memoizes one box power per (P, j), its matrix,
q-power and residue rows mod NULLITY_PRIME, and the Tate side one C^tensor
j per (P, j) with its residue rows, independent of the box side.  A twist
moves only the q-power: its nullity on either side is one sparse rank of
those rows shifted on the diagonal, or an exact Bareiss rank if short.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from math import factorial, gcd, perm, prod
from operator import mul

from .errors import InvalidInstance, VerificationFailed
from .exactlin import (
    CoLGroup,
    IntMatrix,
    LModule,
    NULLITY_PRIME,
    adjugate,
    is_prime,
    is_prime_power,
    kernel,
    matrix_power_kron,
    rank_mod,
)
from .lprimary import FrobObject, box_frob_power, cleared_minus_one

# largest (2g)^j matrix an exact kernel is computed on
KERNEL_DIM_CAP = 100

_MEMO: dict = {}


def clear_memo():
    """Forget every memoized result; the CLI does this as each run starts."""
    _MEMO.clear()


def _memo(key=lambda *args: args):
    """Memoize a function in _MEMO under key(*args), by default the
    arguments themselves; the box side's key drops l, which it ignores."""
    def decorate(fn):
        @wraps(fn)
        def cached(*args):
            k = (fn, key(*args))
            if k not in _MEMO:
                _MEMO[k] = fn(*args)
            return _MEMO[k]
        return cached
    return decorate


# ---------------------------------------------------------------------------
# characteristic polynomial data


def require_decided(test, n: int, name: str, kind: str):
    """Raise InvalidInstance naming n unless test(n) holds, also where
    is_prime leaves n undecided (at or above PRIME_BOUND)."""
    try:
        ok = test(n)
    except ValueError as exc:
        raise InvalidInstance(f"{name} = {n}: {exc}") from exc
    if not ok:
        raise InvalidInstance(f"{name} = {n} is not {kind}")


@dataclass(frozen=True)
class CharPoly:
    """Monic integer characteristic polynomial of Frobenius, with its base.

    coefficients are listed leading-first, so T^2 - 2T + 5 is (1, -2, 5).
    """

    coefficients: tuple
    q: int

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if len(coeffs) < 3 or len(coeffs) % 2 == 0:
            raise InvalidInstance("need even degree 2g >= 2")
        if coeffs[0] != 1:
            raise InvalidInstance("polynomial must be monic")
        if coeffs[-1] == 0:
            raise InvalidInstance("constant term must be nonzero")
        require_decided(is_prime_power, self.q, "q", "a prime power")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def g(self) -> int:
        return self.degree // 2

    def low_coeffs(self) -> tuple:
        """Coefficients constant-first."""
        return tuple(reversed(self.coefficients))

    def frobenius_matrix(self) -> IntMatrix:
        """The semisimple matrix with this characteristic polynomial.

        Frobenius acts semisimply on V_l (Tate, Invent. Math. 2, 1966), so
        it is modeled by the companions of rad P, rad(P / rad P), ... on
        the block diagonal; for squarefree P that is P's companion matrix.
        """
        n = self.degree
        rows = [[0] * n for _ in range(n)]
        rest, at = list(self.low_coeffs()), 0
        while len(rest) > 1:
            rad = _squarefree_part(rest)
            if rad[-1] < 0:  # a primitive factor of a monic P: lc is +-1
                rad = [-c for c in rad]
            rest = _pseudo_divmod(rest, rad)[0]
            d = len(rad) - 1
            for i in range(d):
                rows[at + i][at + d - 1] = -rad[i]
                if i:
                    rows[at + i][at + i - 1] = 1
            at += d
        return IntMatrix.from_rows(rows, n)

    def power_sums(self, upto: int) -> list:
        """Sums of k-th powers of the roots for k = 1..upto, exactly."""
        n = self.degree
        low = self.low_coeffs()
        # elementary symmetric functions with sign folded out, zero past n
        e = [(-1) ** i * low[n - i] for i in range(n + 1)] + [0] * upto
        t = [0] * (upto + 1)
        for k in range(1, upto + 1):  # Newton's identity
            acc = (-1) ** (k - 1) * k * e[k]
            for i in range(1, min(k - 1, n) + 1):
                acc += (-1) ** (i - 1) * e[i] * t[k - i]
            t[k] = acc
        return t[1:]


WEIL_CATALOG = (
    CharPoly((1, -2, 5), 5),
    CharPoly((1, 0, 5), 5),
    CharPoly((1, -2, 2), 2),
    CharPoly((1, 0, 3), 3),
    CharPoly((1, -1, 3), 3),
    CharPoly((1, -4, 5), 5),
    CharPoly((1, -2, 10, -10, 25), 5),
)


@_memo()
def weil_weight_check(P: CharPoly) -> bool:
    """Pure-weight-one test: functional equation plus root location.

    The functional equation T^2g P(q/T) = q^g P(T) pins the multiset of
    roots under a -> q/a.  Writing P(T)/T^g as h(T + q/T) then demands all
    roots of h real in [-2 sqrt q, 2 sqrt q]; together these say every root
    has modulus sqrt q.  All decisions are exact.
    """
    n = P.degree
    g = P.g
    q = P.q
    low = P.low_coeffs()
    for i in range(n + 1):
        if low[i] * q ** i != q ** g * low[n - i]:
            return False
    # h(u) with T^g h(T + q/T) = P(T): h = c_g + sum c_{g+k} V_k(u) where
    # V_k(T + q/T) = T^k + (q/T)^k, V_0 = 2, V_1 = u, V_k = u V_{k-1} - q V_{k-2}
    V = [[2], [0, 1]]  # coefficient lists, low degree first
    for k in range(2, g + 1):
        prev = [0] + V[k - 1]
        back = [c * q for c in V[k - 2]] + [0] * (len(prev) - len(V[k - 2]))
        V.append([a - b for a, b in zip(prev, back)])
    h = [0] * (g + 1)
    h[0] = low[g]
    for k in range(1, g + 1):
        ck = low[g + k]
        for d, c in enumerate(V[k]):
            h[d] += ck * c
    # h is monic of degree g, so all its roots (with multiplicity) lie in the
    # interval exactly when the squarefree part has all its roots there
    hs = _squarefree_part(h)
    chain = _sturm_chain(hs)
    # Sturm: sign changes at -2 sqrt q minus those at 2 sqrt q count the
    # roots in (-2 sqrt q, 2 sqrt q]; a root on -2 sqrt q is added
    inside = (_variations(chain, -2, q) - _variations(chain, 2, q)
              + (_sign_at_sqrt(hs, -2, q) == 0))
    return inside == len(hs) - 1


# ---------------------------------------------------------------------------
# integer polynomials: coefficient lists, low degree first, no trailing zero


def _derivative(p: list) -> list:
    return [k * c for k, c in enumerate(p)][1:]


def _primitive(p: list) -> list:
    """p divided by the gcd of its coefficients; signs are kept, [] stays []."""
    c = gcd(*p)
    return [x // c for x in p] if c > 1 else p


def _pseudo_divmod(a: list, b: list):
    """(quot, rem) with |lc b|^(deg a - deg b + 1) a = quot b + rem.

    The multiplier is positive, so rem is a positive multiple of the
    remainder over Q, and deg rem < deg b.
    """
    db, lc = len(b) - 1, b[-1]
    scale = abs(lc)
    r = list(a)
    quot = [0] * max(len(a) - db, 0)
    for k in range(len(a) - 1 - db, -1, -1):
        t = r[k + db] if lc > 0 else -r[k + db]
        r = [x * scale for x in r]
        quot = [x * scale for x in quot]
        quot[k] += t
        for i, bi in enumerate(b):
            r[k + i] -= t * bi
    r = r[:db]
    while r and r[-1] == 0:
        r.pop()
    return quot, r


def _poly_gcd(a: list, b: list) -> list:
    """A gcd over Q of integer polynomials, by the primitive PRS (Collins)."""
    while b:
        a, b = b, _primitive(_pseudo_divmod(a, b)[1])
    return a


def _squarefree_part(p: list) -> list:
    """p / gcd(p, p') up to a constant factor: the distinct roots of p."""
    d = _poly_gcd(p, _derivative(p))
    return p if len(d) == 1 else _primitive(_pseudo_divmod(p, d)[0])


def _sturm_chain(p: list) -> list:
    """p, p' and the negated pseudo-remainders, each up to a positive factor."""
    chain = [p, _primitive(_derivative(p))]
    while True:
        r = _pseudo_divmod(chain[-2], chain[-1])[1]
        if not r:
            return chain
        chain.append(_primitive([-x for x in r]))


def _sign_at_sqrt(p: list, c: int, q: int) -> int:
    """The sign of p(c sqrt q), exactly: p(c sqrt q) = A + B sqrt q."""
    A = B = 0
    for k, a in enumerate(p):
        term = a * c ** k * q ** (k // 2)
        if k % 2:
            B += term
        else:
            A += term
    sa, sb = (A > 0) - (A < 0), (B > 0) - (B < 0)
    if sa * sb >= 0:
        return sa or sb
    d = A * A - q * B * B
    return sa * ((d > 0) - (d < 0))


def _variations(chain: list, c: int, q: int) -> int:
    """Sign changes along the chain at c sqrt q, zeros skipped."""
    signs = [sg for sg in (_sign_at_sqrt(p, c, q) for p in chain) if sg]
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)


# ---------------------------------------------------------------------------
# Frobenius objects attached to a characteristic polynomial


@_memo()
def torsion_frob(P: CharPoly, ell: int) -> FrobObject:
    """Arithmetic Frobenius on the l-primary torsion of the paired variety.

    With P describing Frobenius C on the Tate module of the dual variety,
    the pairing into Z_l(1) forces the action here to be q * C^(-T); since
    det C = q^g this is q^(1-g) * adj(C)^T with an exact symbolic q-power.
    Memoized per (P, l) and run, so adj(C) is taken once for every j.
    """
    _check_ell(P, ell)
    carrier = CoLGroup(LModule(ell, P.degree))
    mat = adjugate(P.frobenius_matrix()).transpose()
    return FrobObject(carrier, mat, P.q, qpow=1 - P.g)


def _check_ell(P: CharPoly, ell: int):
    """Raise ValueError unless l is prime to q, prime, and keeps Frobenius
    an automorphism: the determinant of every box power is a power of the
    constant term of P, so the last test reads P(0) mod l, no adjugate."""
    if gcd(P.q, ell) != 1:
        raise ValueError(f"l = {ell} divides q = {P.q}")
    if not is_prime(ell):
        raise ValueError(f"l must be prime, got {ell}")
    if P.coefficients[-1] % ell == 0:
        raise ValueError("frobenius must be an automorphism at l")


def box_torsion_frob(P: CharPoly, ell: int, j: int, r: int) -> FrobObject:
    """The coefficient object A{l}^box j (r) as a Frobenius object."""
    return box_frob_power(torsion_frob(P, ell), j).twist(r)


# ---------------------------------------------------------------------------
# cohomology


def h1(X: FrobObject) -> CoLGroup:
    """Co-fixed points (the only higher cohomology of a procyclic group)."""
    return kernel(X.frob_minus_one_cleared()).domain.dual()


# ---------------------------------------------------------------------------
# eigenvalue-product polynomials


def _newton_poly(sums) -> tuple:
    """The monic integer polynomial, leading-first, with power sums sums:
    step k of Newton's identities sums (-1)^(i-1) E[k - i] p_i, i = 1..k."""
    s = [(-1) ** i * pk for i, pk in enumerate(sums)]
    E = [1]
    for k in range(1, len(s) + 1):
        e, rem = divmod(sum(map(mul, reversed(E), s)), k)
        if rem:
            raise VerificationFailed("composed power polynomial not integral")
        E.append(e)
    return tuple((-1) ** k * e for k, e in enumerate(E))


def _shapes(j: int, parts: int, top: int):
    """The partitions of j into at most `parts` parts, each at most top."""
    if j == 0:
        yield ()
    for first in range(min(j, top), 0, -1) if parts else ():
        for rest in _shapes(j - first, parts - 1, first):
            yield (first,) + rest


def _set_partitions(items: list):
    """Every set partition of the positions of items, as lists of blocks."""
    if not items:
        yield []
    for part in _set_partitions(items[1:]) if items else ():
        for i, block in enumerate(part + [[]]):
            yield part[:i] + [items[:1] + block] + part[i + 1:]


@_memo()
def eigenproduct_poly(P: CharPoly, j: int) -> tuple:
    """The ordered j-fold products of roots of P, with multiplicity, as the
    roots of prod Q^w over the factors ((w, Q), ...), each Q monic, integral
    and leading-first: one per shape lambda, a partition of j into at most
    d = deg P parts, whose multisets of roots are each the content of
    w = j!/prod(lambda_i!) ordered tuples.  Q has one root per multiset,
    d!/((d - len lambda)! aut lambda) in all, and k-th power sum
    (1/aut lambda) sum_pi mu(pi) prod_(B in pi) p_(k lambda_B)(P) over the
    set partitions pi of the parts, mu(pi) = prod_B (-1)^(|B|-1) (|B|-1)!
    (Moebius inversion; Doubilet, Stud. Appl. Math. 51, 1972).

    >>> eigenproduct_poly(CharPoly((1, -2, 5), 5), 2)
    ((1, (1, 6, 25)), (2, (1, -5)))
    """
    if j < 0:
        raise ValueError("negative power")
    shapes = [(lam, prod(factorial(lam.count(v)) for v in set(lam)))
              for lam in _shapes(j, P.degree, j)]
    degrees = [perm(P.degree, len(lam)) // aut for lam, aut in shapes]
    t = (P.degree,) + tuple(P.power_sums(j * max(degrees)))  # t[k] = p_k
    factors = []
    for (lam, aut), deg in zip(shapes, degrees):
        terms = [(prod((-1) ** (len(B) - 1) * factorial(len(B) - 1)
                       for B in pi), [sum(B) for B in pi])
                 for pi in _set_partitions(list(lam))]
        sums = [sum(mu * prod(t[k * b] for b in blocks)
                    for mu, blocks in terms) for k in range(1, deg + 1)]
        if any(m % aut for m in sums):
            raise VerificationFailed("shape power sum not divisible by aut")
        factors.append((factorial(j) // prod(map(factorial, lam)),
                        _newton_poly([m // aut for m in sums])))
    return tuple(factors)


def rational_root_multiplicity(coeffs: tuple, target: int) -> int:
    """Multiplicity of target as a root, by synthetic division by x - target.

    coeffs leading-first.  The probe's target is the integer q^(j+r), so
    every step stays in Z; the division is exact arithmetic, so an exact
    rational target (a Fraction) is counted correctly as well.
    """
    cur = list(coeffs)
    mult = 0
    while len(cur) > 1:
        out = [cur[0]]
        for c in cur[1:]:
            out.append(c + target * out[-1])
        if out.pop():
            return mult
        mult += 1
        cur = out
    return mult


@_memo()
def eigenproduct_multiplicity(P: CharPoly, j: int, r: int) -> int:
    """Number of ordered j-tuples of roots of P whose product is q^(j+r).

    Products of algebraic integers are algebraic integers, so a negative
    power of q can never occur and the answer is 0 outright.
    """
    if j + r < 0:
        return 0
    return sum(w * rational_root_multiplicity(Q, P.q ** (j + r))
               for w, Q in eigenproduct_poly(P, j))


# ---------------------------------------------------------------------------
# the vanishing probe


def vanishing_probe(P: CharPoly, ell: int, j: int, r: int) -> int:
    """The corank of H^1(k, A{l}^box j (r)), exactly; it is 0 exactly
    when that group vanishes.

    It is the Q-nullity of (Frobenius - 1) on the dual lattice, which does
    not depend on l; the boundary slot j = -2r is the only one where a
    weight-1 polynomial can put eigenvalue products on a rational q-power.
    l is checked first, at every size, then the Weil gate.  The corank
    comes from root-product arithmetic on P, and is independently
    cross-checked through an integer kernel computation whenever the
    matrix dimension (2g)^j is within KERNEL_DIM_CAP.
    """
    _check_ell(P, ell)
    if not weil_weight_check(P):
        raise InvalidInstance(f"{P.coefficients} is not pure of weight 1 at q={P.q}")
    if j < 0:
        raise InvalidInstance("box power must be non-negative")
    corank = eigenproduct_multiplicity(P, j, r)
    if (P.degree ** j <= KERNEL_DIM_CAP
            and _kernel_corank(P, ell, j, r) != corank):
        raise VerificationFailed("root-product and kernel coranks disagree")
    return corank


def _kernel_corank(P: CharPoly, ell: int, j: int, r: int) -> int:
    _check_ell(P, ell)  # here too: the memo behind it drops l
    return _box_nullity(P, ell, j, r)


@_memo(lambda P, ell, j: (P, j))
def _box_family(P: CharPoly, ell: int, j: int):
    """The transposed untwisted box power K, its residue rows mod
    NULLITY_PRIME and its q-power; none depends on l or on the twist."""
    X = box_torsion_frob(P, ell, j, 0)
    K = X.matrix.transpose()
    return K, K.residue_rows(NULLITY_PRIME), X.qpow


@_memo(lambda P, ell, j, r: (P, j, r))
def _box_nullity(P: CharPoly, ell: int, j: int, r: int) -> int:
    """Integer nullity of the cleared Frobenius - 1; the same at every l.

    It is read on the box power K, not on C^tensor j: the two nullities are
    equal, so the Tate side's matrix here would compare a number with
    itself in duality_crosscheck."""
    K, rows, base = _box_family(P, ell, j)
    return _twist_nullity(K, rows, P.q, base + r)


def _twist_nullity(M: IntMatrix, rows: list, q: int, a: int) -> int:
    """Rational nullity of q^a M - 1 (M - q^-a for a < 0), M square, with
    rows = M.residue_rows(p) for p = NULLITY_PRIME.

    For p prime to q it is a unit times M - q^-a mod p, rows with -q^-a on
    the diagonal, and full rank there proves nullity 0: a minor that is
    nonzero mod p is nonzero over Z.  A short rank, or p | q, takes the
    exact Bareiss rank."""
    n, p = M.rows, NULLITY_PRIME
    if q % p:
        s, shifted = pow(q, -a, p), [dict(r) for r in rows]
        for i, r in enumerate(shifted):
            if d := (r.pop(i, 0) - s) % p:  # a cancelled entry stays out
                r[i] = d
        if rank_mod(shifted, p) == n:
            return 0
    return n - cleared_minus_one(M, q, a).rank()


@_memo()
def _tate_power(P: CharPoly, j: int) -> tuple:
    """C^tensor j for P's Frobenius matrix C and its residue rows mod
    NULLITY_PRIME, built once per (P, j) and run."""
    C = matrix_power_kron(P.frobenius_matrix(), j)
    return C, C.residue_rows(NULLITY_PRIME)


# ---------------------------------------------------------------------------
# duality crosscheck


@dataclass(frozen=True)
class DualityReport:
    left_corank: int
    right_corank: int
    left_method: str
    right_method: str

    @property
    def levels_agree(self) -> bool:
        """The two sides agree at every level: the l^s-torsion of a
        divisible group of corank k is (Z/l^s)^k, so that is corank equality."""
        return self.left_corank == self.right_corank


def duality_crosscheck(P: CharPoly, ell: int, j: int, r: int) -> DualityReport:
    """Compare H^1 of the torsion side with the dual of H^0 on the Tate side.

    Left: H^1(k, A{l}^box j (r)), divisible of some corank.  Right: the
    Pontryagin dual of the fixed module of (T_l of the dual variety, which
    P describes)^tensor j twisted by -j-r.  Both coranks are computed.
    Methods are recorded because the small-dimension route uses genuine
    integer kernels while large dimensions fall back to root-product
    arithmetic, shared by both sides.  l is checked at every size.
    """
    _check_ell(P, ell)
    if P.degree ** j <= KERNEL_DIM_CAP:
        left = _kernel_corank(P, ell, j, r)
        left_method = "kernel"
        right = _tate_fixed_rank(P, j, r)
        right_method = "kernel"
    else:
        left = eigenproduct_multiplicity(P, j, r)
        left_method = "eigenproduct"
        right = eigenproduct_multiplicity(P, j, r)
        right_method = "eigenproduct-shared"
    return DualityReport(left, right, left_method, right_method)


@_memo()
def _tate_fixed_rank(P: CharPoly, j: int, r: int) -> int:
    """Rank of the vectors fixed by q^(-j-r) C^tensor j on the free module."""
    return _twist_nullity(*_tate_power(P, j), P.q, -j - r)
