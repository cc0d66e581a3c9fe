"""The modified tensor calculus on l-primary torsion groups.

The discrete category here is that of l-primary torsion groups of cofinite
type, ``(Ql/Zl)^corank (+) finite``.  The product is not the usual tensor
(which is poorly behaved on divisible groups) but the double-dual twist

    A box B  :=  dual( dual(A) (x) dual(B) )

computed entirely on the finitely generated dual side, where tensor products
are classical.  The unit is Ql/Zl and box powers use A^box0 = Ql/Zl.

Maps of discrete groups are stored through their Pontryagin duals
(:class:`CoMap`); kernels and cokernels swap under duality, so exactness
checks reduce to the exact machinery of :mod:`devissage.exactlin`.

Frobenius data (:class:`FrobObject`) keeps the arithmetic Frobenius as an
exact integer matrix together with a power of q, so negative Tate twists
never force a lossy modular inverse: multiplication by a q-power is an
automorphism and can be cleared before any kernel or cokernel is taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd
from typing import Sequence

from .exactlin import (
    CoLGroup,
    IntMatrix,
    LMap,
    LModule,
    homology_at,
    is_prime,
    is_prime_power,
    matrix_power_kron,
    rank_mod,
    tensor_maps,
)


# ---------------------------------------------------------------------------
# the box product


def box_unit(ell: int) -> CoLGroup:
    """The unit Ql/Zl of the box product."""
    return CoLGroup(LModule(ell, 1))


def co_direct_sum(A: CoLGroup, B: CoLGroup) -> CoLGroup:
    """Direct sum of discrete groups, through the dual sum."""
    return CoLGroup(A.dual_module.direct_sum(B.dual_module))


def box(A: CoLGroup, B: CoLGroup) -> CoLGroup:
    """Modified tensor product, via duals.

    >>> str(box(box_unit(2), box_unit(2)))
    '(Q2/Z2)'
    """
    return CoLGroup(A.dual_module.tensor(B.dual_module))


def box_power(A: CoLGroup, n: int) -> CoLGroup:
    """n-fold box power; the 0th power is the unit Ql/Zl.

    For n >= 1 it starts from A and takes n - 1 products: the closed-form
    tensor with the unit's dual Zl returns the canonical input, so this is
    the power started from the unit, one product fewer.
    """
    if n < 0:
        raise ValueError("negative box power")
    if not n:
        return CoLGroup(LModule._trusted(A.ell, 1, ()))
    out = A
    for _ in range(n - 1):
        out = box(out, A)
    return out


def tor_box(A: CoLGroup, B: CoLGroup) -> CoLGroup:
    """First derived functor of the box product.

    Closed form: finite cyclic pieces pair by minimum exponent, divisible
    pieces (free duals) contribute nothing.
    """
    return CoLGroup(A.dual_module.tor1(B.dual_module))


def random_cogroup(rng, ell: int) -> CoLGroup:
    """A random (Ql/Zl)^c (+) finite group for property sweeps.

    Draws the corank c <= 2, the number k <= 2 of cyclic factors and then
    each exponent, at most 3, from rng, in that order, by randrange: CPython's
    randint(a, b) is a + randrange(b - a + 1), so the values and the state
    left behind are those of randint(0, 2), randint(0, 2) and randint(1, 3).
    """
    if not is_prime(ell):
        raise ValueError(f"l must be prime, got {ell}")
    c = rng.randrange(3)
    k = rng.randrange(3)
    exps = sorted([rng.randrange(3) + 1 for _ in range(k)], reverse=True)
    return CoLGroup(LModule._trusted(ell, c, tuple(exps)))


# ---------------------------------------------------------------------------
# maps of discrete groups


@dataclass(frozen=True)
class CoMap:
    """Map of discrete l-primary groups, stored via its Pontryagin dual.

    dual_map runs from codomain.dual_module to domain.dual_module.
    """

    domain: CoLGroup
    codomain: CoLGroup
    dual_map: LMap

    def __post_init__(self):
        if self.dual_map.domain != self.codomain.dual_module:
            raise ValueError("dual map must start at the codomain dual")
        if self.dual_map.codomain != self.domain.dual_module:
            raise ValueError("dual map must end at the domain dual")

    @classmethod
    def from_dual_matrix(cls, domain: CoLGroup, codomain: CoLGroup, matrix) -> "CoMap":
        return cls(domain, codomain,
                   LMap(codomain.dual_module, domain.dual_module, matrix))

    @classmethod
    def identity_on(cls, C: CoLGroup) -> "CoMap":
        return cls(C, C, LMap.identity_on(C.dual_module))

    @classmethod
    def multiplication(cls, C: CoLGroup, c: int) -> "CoMap":
        return cls(C, C, LMap.identity_on(C.dual_module).scale(c))

    def compose(self, other: "CoMap") -> "CoMap":
        """self after other; duals compose the other way round."""
        if other.codomain != self.domain:
            raise ValueError("composition mismatch")
        return CoMap(other.domain, self.codomain,
                     other.dual_map.compose(self.dual_map))

    def is_zero_map(self) -> bool:
        return self.dual_map.is_zero_map()


def box_maps(f: CoMap, g: CoMap) -> CoMap:
    """f box g, computed as the tensor of the dual maps."""
    dom = box(f.domain, g.domain)
    cod = box(f.codomain, g.codomain)
    return CoMap(dom, cod, tensor_maps(f.dual_map, g.dual_map))


def co_exactness(maps: Sequence[CoMap]):
    """Homology of a complex of discrete groups at every position.

    maps = [f1, ..., fn] for 0 -> T0 -f1-> T1 -> ... -> Tn -> 0 with zero
    maps implied off both ends.  Returns the list of homology groups; all
    trivial means exact.  Computed on the dual complex, which reverses the
    arrows but preserves exactness position by position.
    """
    for a, b in zip(maps, maps[1:]):
        if a.codomain != b.domain:
            raise ValueError("maps do not form a chain")
        if not b.compose(a).is_zero_map():
            raise ValueError("consecutive maps do not compose to zero")
    terms = [maps[0].domain] + [f.codomain for f in maps]
    n = len(terms)
    out = []
    for i in range(n):
        incoming = maps[i].dual_map if i < n - 1 else None
        outgoing = maps[i - 1].dual_map if i >= 1 else None
        h = homology_at(incoming, outgoing, terms[i].dual_module)
        out.append(CoLGroup(h))
    return out


# ---------------------------------------------------------------------------
# torsion levels


def finite_box_power(F: LModule, n: int) -> LModule:
    """Box power of a finite group, which is just the tensor power of itself."""
    if not F.is_finite:
        raise ValueError("finite box power needs a finite module")
    if n < 1:
        raise ValueError("finite box power needs n >= 1; the unit is Ql/Zl")
    mod = F
    for _ in range(n - 1):
        mod = mod.tensor(F)
    return mod


def tors_level_check(A: CoLGroup, n: int, s: int) -> bool:
    """l^s-torsion of A^box n equals the n-th tensor power of the l^s-torsion.

    For divisible A these are canonically isomorphic; the check compares
    canonical forms.
    """
    if not A.is_divisible:
        raise ValueError("level comparison is stated for divisible groups")
    box_side = box_power(A, n).level(s)
    if n == 0:
        # empty products: the level of the unit Ql/Zl is cyclic of order l^s
        tensor_side = LModule(A.ell, 0, (s,) if s else ())
    else:
        tensor_side = finite_box_power(A.level(s), n)
    return box_side == tensor_side


@dataclass(frozen=True)
class TorsBisData:
    """The level-raising maps on tensor powers of torsion levels.

    f_st: divide each tensor leg by l^(t-s) inside the level-t subgroup,
    then multiply the whole tensor back; incl is the natural inclusion of
    the s-level of the box power into its t-level.  The identifications
    iso_s, iso_t of tensor powers of levels with levels of the box power
    close the square  incl o iso_s = iso_t o f_st,  which must commute.
    A is divisible, so both are identities on equal modules: the level-s
    tensor power and the level s of the box power are both (Z/l^s)^(c^n)
    with generator tuples in Kronecker (lexicographic) order, and the
    square commutes iff incl and f_st agree as maps.
    """

    f_st: LMap
    incl: LMap
    commutes: bool


def torsbis_maps(A: CoLGroup, s: int, t: int, n: int, rng=None) -> TorsBisData:
    """Construct the level-raising diagram for A^box n between levels s <= t.

    A = (Ql/Zl)^c, so f_st runs from (Z/l^s)^N to (Z/l^t)^N, N = c^n, with
    generator tuples in itertools.product order.  The column of a tuple is
    l^(t-s) times the Kronecker product of the lifts of its legs, reduced
    mod l^t by LMap; n = 0 has one empty tuple and the column [l^(t-s)].
    With an rng each lift e_i is perturbed by random l^s-multiples, drawn
    tuple by tuple, leg by leg, coordinate by coordinate; the outcome must
    not change, which demonstrates well-definedness of the
    divide-then-multiply recipe.
    """
    if not A.is_divisible:
        raise ValueError("level-raising maps need a divisible group")
    if not 1 <= s <= t:
        raise ValueError("need 1 <= s <= t")
    if n < 0:
        raise ValueError("negative tensor power")
    ell = A.ell
    c = A.corank
    up, mod_s = ell ** (t - s), ell ** s
    cols = []
    for tup in product(range(c), repeat=n):
        col = [up]
        for i in tup:
            # lift each leg: a_{i} = l^(t-s) * b with b = e_i + l^s * z
            lift = ([0] * c if rng is None
                    else [mod_s * rng.randrange(ell) for _ in range(c)])
            lift[i] += 1
            col = [x * y for x in col for y in lift]
        cols.append(col)
    # LMap reduces every row mod l^t, the order of each codomain generator
    N = len(cols)
    f_st = LMap(LModule._trusted(ell, 0, (s,) * N),
                LModule._trusted(ell, 0, (t,) * N),
                IntMatrix._trusted(N, N, tuple(zip(*cols))))
    An = box_power(A, n)
    incl = LMap(An.level(s), An.level(t), An.level_inclusion_matrix(s, t))
    return TorsBisData(f_st, incl, incl == f_st)


# ---------------------------------------------------------------------------
# Frobenius objects


def cleared_minus_one(mat: IntMatrix, q: int, t: int) -> IntMatrix:
    """q^t mat - 1 for t >= 0, else mat - q^-t: a unit multiple of it."""
    one = IntMatrix.identity(mat.rows)
    return mat.scale(q ** t) - one if t >= 0 else mat - one.scale(q ** -t)


@dataclass(frozen=True)
class FrobObject:
    """A divisible group (Ql/Zl)^n together with its arithmetic Frobenius.

    The Frobenius is q^qpow * matrix with an exact integer matrix; the
    q-power is kept symbolic so that negative Tate twists stay exact
    (q is a unit at l, so clearing it never changes kernels or cokernels).

    The matrix acts on every torsion level (Z/l^s)^n of the carrier at
    once, in the coordinate labels of the dual module Zl^n; the action on
    the dual itself is the transpose.  A carrier with a finite part admits
    no such single matrix and is rejected.

    On a nontrivial carrier the matrix must be invertible over Z_l: l is
    prime, so det is nonzero and prime to l exactly when the matrix has
    full rank mod l, which is what is checked.
    """

    carrier: CoLGroup
    matrix: IntMatrix
    q: int
    qpow: int = 0

    def __post_init__(self):
        if not self.carrier.is_divisible:
            raise ValueError("frobenius objects need a divisible carrier")
        mat = self.matrix
        n = self.carrier.corank
        if mat.rows != n or mat.cols != n:
            raise ValueError("frobenius matrix must be square on the carrier")
        if gcd(self.q, self.ell) != 1:
            raise ValueError(f"q={self.q} is not a unit at l={self.ell}")
        if not is_prime_power(self.q):
            raise ValueError("q must be a prime power >= 2")
        if n and rank_mod(mat.residue_rows(self.ell), self.ell) < n:
            raise ValueError("frobenius must be an automorphism at l")

    @property
    def ell(self) -> int:
        return self.carrier.ell

    @property
    def rep_module(self) -> LModule:
        """The finitely generated coordinate container, the dual Zl^n."""
        return self.carrier.dual_module

    # -- materialisation ---------------------------------------------

    def frob_minus_one_cleared(self) -> LMap:
        """An exact integer map with the kernel and cokernel of frobenius - 1.

        q^t*F - 1 equals the unit q^t times (F - q^-t); clearing the unit
        changes neither kernel nor cokernel up to canonical isomorphism.
        """
        mod = self.rep_module
        return LMap(mod, mod, cleared_minus_one(self.matrix, self.q, self.qpow))

    # -- constructions ------------------------------------------------

    @classmethod
    def _trusted(cls, carrier, matrix, q, qpow) -> "FrobObject":
        """Derived from a checked object: stored without the checks."""
        out = object.__new__(cls)
        out.__dict__.update(carrier=carrier, matrix=matrix, q=q, qpow=qpow)
        return out

    def twist(self, r: int) -> "FrobObject":
        """Tate twist: multiply the Frobenius by q^r, tracked exactly; no
        check reads qpow, so the twist is stored unchecked."""
        return self._trusted(self.carrier, self.matrix, self.q, self.qpow + r)


def box_frob_power(X: FrobObject, n: int) -> FrobObject:
    """n-fold box power of a Frobenius object; the 0th power is the unit.

    The carrier's dual is free: its tensor power orders generator tuples as
    the Kronecker power does, and (q^a F)^box n = q^(n a) F^box n.  The
    power is stored unchecked: the box power of a divisible carrier is
    divisible, and det(F^kron n) = det(F)^(n c^(n-1)) on c generators, a
    unit mod l because det(F) is."""
    if n < 0:
        raise ValueError("negative box power")
    return FrobObject._trusted(box_power(X.carrier, n),
                               matrix_power_kron(X.matrix, n), X.q, n * X.qpow)


# ---------------------------------------------------------------------------
# exactness probes


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of boxing a short exact sequence with a fixed group."""

    injective: bool
    middle_exact: bool
    surjective: bool
    obstruction: CoLGroup

    @property
    def left_exact(self) -> bool:
        return self.injective and self.middle_exact


def _require_ses(iota: CoMap, pi: CoMap):
    if iota.codomain != pi.domain:
        raise ValueError("maps do not compose into a sequence")
    hs = co_exactness([iota, pi])
    if any(not h.is_trivial for h in hs):
        raise ValueError("input sequence is not exact")


def left_exactness_probe(iota: CoMap, pi: CoMap,
                         *groups: CoLGroup) -> tuple:
    """Box an exact 0 -> X -> Y -> Z -> 0 with each group A and measure what
    survives; one ProbeResult per group, in order, and one proof that the
    input sequence is exact for all of them.

    The boxed sequence is always exact except possibly at the right end;
    the cokernel of the right map is reported as the obstruction.
    """
    _require_ses(iota, pi)
    out = []
    for A in groups:
        idA = CoMap.identity_on(A)
        # the last homology is the cokernel of the boxed pi: the dual of the
        # kernel of its dual map
        hs = co_exactness([box_maps(iota, idA), box_maps(pi, idA)])
        out.append(ProbeResult(
            injective=hs[0].is_trivial,
            middle_exact=hs[1].is_trivial,
            surjective=hs[2].is_trivial,
            obstruction=hs[2],
        ))
    return tuple(out)
