"""Exact integer linear algebra and canonical forms for l-local modules.

Everything here is computed over Z with exact (arbitrary size) integers and
interpreted l-locally only at the very end, when a presentation is collapsed
to its canonical form.  Localisation at l is flat, so kernels, cokernels and
tensor products may be computed over Z first and read off l-locally at the
end; no rounding ever happens.

The two carrier types:

* :class:`LModule` -- a finitely generated module over the l-adic integers in
  canonical form ``Zl^r (+) Z/l^e1 (+) ... (+) Z/l^ek`` with e1 >= ... >= ek.
* :class:`CoLGroup` -- a cofinitely generated l-primary torsion group,
  represented by the finitely generated module it is the Pontryagin dual of.

Maps are exact integer matrices on canonical generators (:class:`LMap`).

The public constructors of :class:`IntMatrix` and :class:`LModule` validate
their input; results the library builds from already-validated values
(products, Smith forms, tensor products, torsion levels, ...) take the
private ``_trusted`` route, which stores them unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from operator import index, lt
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import VerificationFailed


# ---------------------------------------------------------------------------
# small integer helpers


# Miller-Rabin with the first 13 prime bases decides every n below
# PRIME_BOUND, itself a strong pseudoprime to all 13 (Sorenson and Webster,
# Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SMALL_PRIMES = frozenset(_MR_BASES)
PRIME_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < PRIME_BOUND.

    Raises ValueError for larger n, where the test is not proven exact.
    """
    if n <= _MR_BASES[-1]:
        return n in _SMALL_PRIMES
    if any(n % p == 0 for p in _MR_BASES):
        return False
    if n >= PRIME_BOUND:
        raise ValueError(
            f"primality of {n} is not decided deterministically at or above "
            f"{PRIME_BOUND}")
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime_power(n: int) -> bool:
    """Whether n = p^k for a prime p and k >= 1; raises where is_prime does.

    A factor p <= 41 settles it.  Else every prime factor is at least 43, so
    k <= log2(n) / 5, and the exact k-th root r of n for the largest such k
    with one is no perfect power: n is a prime power iff r is prime.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return p ** valuation(n, p) == n
    b = n.bit_length()
    for k in range(b // 5, 1, -1):
        # Newton from above: 2^(b/k) >= n^(1/k), within a factor 2^(1/k)
        r = int(2.0 ** (b / k) * (1 + 2.0 ** -40)) + 1 if b < 1000 * k else 1 << -(-b // k)
        while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
            r = s
        if r ** k == n:
            return is_prime(r)
    return is_prime(n)


def valuation(x: int, ell: int) -> int:
    """l-adic valuation of a nonzero integer.

    >>> valuation(48, 2)
    4
    """
    if x == 0:
        raise ValueError("valuation of zero is infinite")
    v = 0
    x = abs(x)
    while x % ell == 0:
        x //= ell
        v += 1
    return v


# ---------------------------------------------------------------------------
# immutable integer matrices
#
# A tiny shape-aware wrapper.  Bare lists of lists lose track of the column
# count the moment a matrix has zero rows, and zero-dimensional matrices are
# everywhere in this project (trivial kernels, empty relation sets).


class IntMatrix:
    """Immutable integer matrix with explicit shape."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Iterable[Iterable[int]]):
        self.rows = rows
        self.cols = cols
        tup = tuple(tuple(map(int, row)) for row in data)
        if len(tup) != rows or any(len(r) != cols for r in tup):
            raise ValueError("shape mismatch in IntMatrix")
        self.data = tup

    @classmethod
    def _trusted(cls, rows: int, cols: int, data: tuple) -> "IntMatrix":
        """Unchecked: data is a rows-tuple of cols-tuples of Python ints,
        built from already-validated matrices (__eq__ compares it as stored)."""
        m = object.__new__(cls)
        m.rows, m.cols, m.data = rows, cols, data
        return m

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        data = list(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        return cls(len(data), cols, data)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls.diagonal((1,) * n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls._trusted(rows, cols, ((0,) * cols,) * rows)

    @classmethod
    def diagonal(cls, entries: Sequence[int]) -> "IntMatrix":
        n = len(entries)
        return cls._trusted(n, n, tuple([
            (0,) * i + (index(x),) + (0,) * (n - 1 - i) for i, x in enumerate(entries)]))

    # -- basic ops ----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols}, {self.data!r})"

    def entry(self, i: int, j: int) -> int:
        return self.data[i][j]

    def transpose(self) -> "IntMatrix":
        data = tuple(zip(*self.data)) if self.rows else ((),) * self.cols
        return IntMatrix._trusted(self.cols, self.rows, data)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = []
        od = other.data
        for r in self.data:
            row = [0] * other.cols
            for k, a in enumerate(r):
                if a:
                    ork = od[k]
                    for j in range(other.cols):
                        row[j] += a * ork[j]
            out.append(tuple(row))
        return IntMatrix._trusted(self.rows, other.cols, tuple(out))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix._trusted(self.rows, self.cols, tuple([
            tuple([a + b for a, b in zip(r1, r2)]) for r1, r2 in zip(self.data, other.data)]))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + other.scale(-1)

    def scale(self, c: int) -> "IntMatrix":
        c = index(c)
        return IntMatrix._trusted(self.rows, self.cols, tuple([
            tuple([c * x for x in r]) for r in self.data]))

    def mod(self, m: int) -> "IntMatrix":
        m = index(m)
        return IntMatrix._trusted(self.rows, self.cols, tuple([
            tuple([x % m for x in r]) for r in self.data]))

    def residue_rows(self, p: int) -> list:
        """self mod p as one {column: nonzero residue} dict per row."""
        return [{k: y for k, x in enumerate(r) if (y := x % p)}
                for r in self.data]

    def apply(self, vec: Sequence[int]) -> tuple:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * v for a, v in zip(row, vec)) for row in self.data)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return IntMatrix._trusted(self.rows, self.cols + other.cols, tuple([
            r1 + r2 for r1, r2 in zip(self.data, other.data)]))

    def take_rows(self, idx: Sequence[int]) -> "IntMatrix":
        return IntMatrix._trusted(len(idx), self.cols, tuple([self.data[i] for i in idx]))

    def take_cols(self, idx: Sequence[int]) -> "IntMatrix":
        return IntMatrix._trusted(self.rows, len(idx), tuple([
            tuple([r[j] for j in idx]) for r in self.data]))

    def kron(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix._trusted(self.rows * other.rows, self.cols * other.cols, tuple([
            tuple([a * b for a in r1 for b in r2]) for r1 in self.data for r2 in other.data]))

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.data for x in r)

    def det(self) -> int:
        """Exact determinant via fraction-free Bareiss elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        if self.rows == 0:
            return 1
        rank, sign, pivot = _bareiss([list(r) for r in self.data])
        return sign * pivot if rank == self.rows else 0

    def rank(self) -> int:
        """Rank over Q via fraction-free Bareiss elimination."""
        return _bareiss([list(r) for r in self.data])[0]


def _bareiss(a: list):
    """Fraction-free row echelon of the row list a, in place.

    Returns (rank, sign of the row permutation, last pivot).  Every entry
    stays an integer minor of the input, so each division is exact; for a
    square matrix of full rank, sign * last pivot is its determinant.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    r, sign, prev = 0, 1, 1
    for k in range(cols):
        if r == rows:
            break
        if a[r][k] == 0:
            for i in range(r + 1, rows):
                if a[i][k] != 0:
                    a[r], a[i] = a[i], a[r]
                    sign = -sign
                    break
            else:
                continue
        top = a[r]
        piv = top[k]
        for i in range(r + 1, rows):
            row = a[i]
            x = row[k]
            for j in range(k + 1, cols):
                row[j] = (row[j] * piv - x * top[j]) // prev
            row[k] = 0
        prev = piv
        r += 1
    return r, sign, prev


# ---------------------------------------------------------------------------
# Smith normal form


def smith_with_inverses(A: IntMatrix):
    """Smith normal form with the transforms its callers read.

    Returns (U, D, V, Uinv) with U A V = D, U and V unimodular,
    Uinv = U^-1, D diagonal with non-negative entries and d_i | d_{i+1}.

    Pivot choice: the nonzero entry of smallest absolute value in the active
    block, ties broken in row-major order, which makes every run fully
    deterministic.  The diagonal D is the classical invariant-factor form and
    does not depend on the pivot rule.

    Cost follows the nonzeros: the pivot scan stops at the first unit (the
    smallest possible entry), row and column operations touch only the
    nonzero entries of their source, and a unit pivot skips the scan for an
    entry it does not divide.

    >>> D = smith_with_inverses(IntMatrix.from_rows([[2, 4], [6, 8]]))[1]
    >>> [D.entry(i, i) for i in range(2)]
    [2, 4]
    """
    m, n = A.rows, A.cols
    a = [list(r) for r in A.data]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    Ui = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def pivot(t):
        # min |entry|, row-major ties; a unit is the minimum
        best = None
        for i in range(t, m):
            for j, x in enumerate(a[i][t:], t):
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
                    if best[0] == 1:
                        return best
        return best

    def row_swap(i, j):
        if i == j:
            return
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]
        for r in Ui:
            r[i], r[j] = r[j], r[i]

    def row_add(i, j, c):
        # row_i += c * row_j, at the nonzero entries of row_j
        if c == 0:
            return
        for src, dst in ((a[j], a[i]), (U[j], U[i])):
            for k, x in enumerate(src):
                if x:
                    dst[k] += c * x
        for r in Ui:
            if r[i]:
                r[j] -= c * r[i]

    def col_swap(i, j):
        if i == j:
            return
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        U[i] = [-x for x in U[i]]
        for r in Ui:
            r[i] = -r[i]

    t = 0
    while t < m and t < n:
        best = pivot(t)
        if best is None:
            break
        row_swap(t, best[1])
        col_swap(t, best[2])
        while True:
            # reduce column t
            dirty = False
            for i, r in enumerate(a):
                if r[t] and i != t:
                    row_add(i, t, -(r[t] // a[t][t]))
                    if r[t]:
                        dirty = True
            if dirty:
                # a smaller residue exists below; promote it and repeat
                row_swap(t, min((abs(r[t]), i) for i, r in enumerate(a)
                                if r[t] and i != t)[1])
                continue
            # reduce row t: column t is now clear, so adding a multiple of
            # it changes a only in row t, and V only where V[r][t] != 0
            at, d = a[t], a[t][t]
            vt = [r for r in V if r[t]]
            dirty = False
            for j, x in enumerate(at):
                if x and j != t:
                    q = x // d
                    if q:
                        at[j] -= q * d
                        for r in vt:
                            r[j] -= q * r[t]
                    if at[j]:
                        dirty = True
            if dirty:
                col_swap(t, min((abs(x), j) for j, x in enumerate(at)
                                if x and j != t)[1])
                continue
            # pivot must divide the rest of the block; a unit divides all
            stuck = None if d in (1, -1) else next(
                (i for i in range(t + 1, m) if any(x % d for x in a[i][t + 1:])),
                None)
            if stuck is None:
                break
            row_add(t, stuck, 1)
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    return (
        IntMatrix._trusted(m, m, tuple(map(tuple, U))),
        IntMatrix._trusted(m, n, tuple(map(tuple, a))),
        IntMatrix._trusted(n, n, tuple(map(tuple, V))),
        IntMatrix._trusted(m, m, tuple(map(tuple, Ui))),
    )


class SmithForm(NamedTuple):
    """One Smith form U A V = D of A, unchecked, that every kernel, cokernel,
    solve and level structure reads; diagonal has one d_i per row of A, 0
    past the rank."""

    U: IntMatrix
    V: IntMatrix
    Uinv: IntMatrix
    diagonal: tuple

    @classmethod
    def of(cls, A: IntMatrix) -> "SmithForm":
        U, D, V, Ui = smith_with_inverses(A)
        return cls(U, V, Ui, tuple([r[i] if i < A.cols else 0
                                    for i, r in enumerate(D.data)]))

    def orders(self, ell: int, s: Optional[int] = None) -> list:
        """(v_i, i) for each row i with v_i != 0, by decreasing v_i, ties by row:
        v_i = v_l(d_i), or None (ranked first) where d_i = 0, which lists the
        free, then the torsion generators of Z^rows / A Z^cols; at a level s,
        v_i = min(v_l(d_i), s), or s where d_i = 0."""
        out = []
        for i, d in enumerate(self.diagonal):
            v = (s if d == 0 else valuation(d, ell) if s is None
                 else min(valuation(d, ell), s))
            if v != 0:
                out.append((v, i))
        out.sort(key=lambda t: -(t[0] or inf))   # v is never 0 here
        return out


def integer_kernel_basis(A: IntMatrix) -> IntMatrix:
    """Basis of {x in Z^cols : A x = 0} as columns of the returned matrix.

    The basis spans a saturated sublattice (the honest kernel, not a finite
    index subgroup of it).
    """
    sf = SmithForm.of(A)
    return sf.V.take_cols(range(sum(map(bool, sf.diagonal)), A.cols))


def solve_integer(A: IntMatrix, B: IntMatrix) -> Optional[IntMatrix]:
    """An integer X with A @ X = B, or None when some column of B has none.

    One Smith form U A V = D serves every column: U B = D Y is solved by
    exact division row by row, and X = V Y.
    """
    if A.rows != B.rows:
        raise ValueError(f"cannot solve a {A.rows}-row system for {B.rows} rows")
    sf = SmithForm.of(A)
    Y = []
    for row, d in zip((sf.U @ B).data, sf.diagonal):
        if (any(x % d for x in row) if d else any(row)):
            return None
        Y.append([x // d for x in row] if d else row)
    # Y needs A.cols rows: rows past A.cols were checked to be zero, and
    # unknowns past A.rows are free and set to zero
    Y = (Y + [[0] * B.cols] * A.cols)[:A.cols]
    return sf.V @ IntMatrix(A.cols, B.cols, Y)


def adjugate(m: IntMatrix) -> IntMatrix:
    """adj(m), the integer X with m X = det(m) I, for a nonsingular m."""
    target = IntMatrix.identity(m.rows).scale(m.det())
    X = solve_integer(m, target)
    if X is None or m @ X != target:
        raise VerificationFailed("m adj(m) is not det(m) I")
    return X


# the largest prime below 2^30: a residue is one 30-bit digit of a CPython
# int, so the vanishing grid's 64x64 ranks ran 27% faster than mod 2^31 - 1
# (CPython 3.11)
NULLITY_PRIME = 2 ** 30 - 35


def rank_mod(rows: list, p: int) -> int:
    """Rank over Z/p, p prime, of IntMatrix.residue_rows, by elimination in
    place: each pivot updates only the rows with an entry in its column, at
    its own columns, and drops each entry that cancels.  The pivot of a
    column is the candidate row with the fewest nonzeros, which fills in the
    fewest entries (Markowitz, Management Sci. 3, 1957); over a field the
    rank is the same for every pivot order.

    A minor that is nonzero mod p is nonzero over Z, so this never exceeds
    the rank over Q.

    >>> rank_mod(IntMatrix.from_rows([[1, 2], [3, 4]]).residue_rows(2), 2)
    1
    """
    rank = 0
    for c in sorted(set().union(*rows)):  # fill stays in the input's columns
        # rows holds the rows not yet taken as pivots, none with a column < c
        below = [r for r in rows if c in r]
        if not below:
            continue
        top = min(below, key=len)
        rows = [r for r in rows if r is not top]
        inv = pow(top.pop(c), -1, p)
        tail = [(k, y * inv % p) for k, y in top.items()]
        rank += 1
        for r in below:
            if r is not top:
                x = r.pop(c)
                for k, y in tail:
                    if z := (r.pop(k, 0) - x * y) % p:
                        r[k] = z
        if not rows:
            break
    return rank


# ---------------------------------------------------------------------------
# canonical l-local modules


@dataclass(frozen=True)
class LModule:
    """Finitely generated Zl-module in canonical form.

    ``Zl^free_rank (+) Z/l^e1 (+) ... (+) Z/l^ek`` with weakly decreasing
    exponents.  Two modules are isomorphic iff they are equal as values.

    Generator convention: generators 0..free_rank-1 are free, generator
    free_rank+i has order l^torsion_exponents[i].

    >>> M = LModule(2, 1, (3, 1))
    >>> str(M)
    'Z2 x C8 x C2'
    """

    ell: int
    free_rank: int
    torsion_exponents: tuple = ()

    def __post_init__(self):
        if not is_prime(self.ell):
            raise ValueError(f"l must be prime, got {self.ell}")
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        exps = tuple(map(int, self.torsion_exponents))
        object.__setattr__(self, "torsion_exponents", exps)
        if exps and min(exps) < 1:
            raise ValueError("torsion exponents must be >= 1")
        if any(map(lt, exps, exps[1:])):
            raise ValueError("torsion exponents must be weakly decreasing")

    @classmethod
    def _trusted(cls, ell: int, free_rank: int, exps: tuple) -> "LModule":
        """Unchecked: canonical data built from already-validated modules."""
        m = object.__new__(cls)
        d = m.__dict__
        d["ell"], d["free_rank"], d["torsion_exponents"] = ell, free_rank, exps
        return m

    # -- structure queries -------------------------------------------

    @property
    def num_gens(self) -> int:
        return self.free_rank + len(self.torsion_exponents)

    @property
    def is_trivial(self) -> bool:
        return self.num_gens == 0

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def gen_orders(self) -> tuple:
        """Per-generator order exponent, None meaning free."""
        return (None,) * self.free_rank + self.torsion_exponents

    def relation_cols(self) -> IntMatrix:
        """Relations of the defining presentation, one column per torsion generator."""
        f, exps = self.free_rank, self.torsion_exponents
        return IntMatrix._trusted(self.num_gens, len(exps), tuple([
            tuple([self.ell ** e if j == f + i else 0 for i, e in enumerate(exps)])
            for j in range(self.num_gens)]))

    def reduce_columns(self, M: IntMatrix) -> IntMatrix:
        """Reduce every column of generator coordinates into canonical range."""
        return IntMatrix._trusted(M.rows, M.cols, tuple([
            r if e is None else tuple([x % self.ell ** e for x in r])
            for r, e in zip(M.data, self.gen_orders(), strict=True)]))

    # -- constructions ------------------------------------------------

    def _check_prime(self, other: "LModule"):
        if self.ell != other.ell:
            raise ValueError(f"l={self.ell} vs l={other.ell}")

    def direct_sum(self, other: "LModule") -> "LModule":
        self._check_prime(other)
        exps = tuple(sorted(self.torsion_exponents + other.torsion_exponents, reverse=True))
        return LModule._trusted(self.ell, self.free_rank + other.free_rank, exps)

    def tensor(self, other: "LModule") -> "LModule":
        """Tensor product over Zl, in closed form on cyclic factors.

        Zl (x) Zl = Zl, Zl (x) Z/l^e = Z/l^e, Z/l^a (x) Z/l^b = Z/l^min(a,b);
        callers that need the generator pairing use :func:`tensor_with_index`.

        >>> str(LModule(3, 2).tensor(LModule(3, 1, (2,))))
        'Z3^2 x C9 x C9'
        """
        if self.ell != other.ell:
            raise ValueError("tensor across primes")
        a, b = self.torsion_exponents, other.torsion_exponents
        exps = [x if x < y else y for x in a for y in b]
        exps += a * other.free_rank + b * self.free_rank
        exps.sort(reverse=True)
        return LModule._trusted(self.ell, self.free_rank * other.free_rank, tuple(exps))

    def tor1(self, other: "LModule") -> "LModule":
        """First derived functor of tensor over Zl.

        Cyclic rules: Tor1(Z/l^a, Z/l^b) = Z/l^min(a,b); free factors
        contribute nothing.  Higher Tor vanishes: Zl has global dimension 1.
        """
        self._check_prime(other)
        exps = sorted(
            (min(a, b) for a in self.torsion_exponents for b in other.torsion_exponents),
            reverse=True,
        )
        return LModule._trusted(self.ell, 0, tuple(exps))

    def dual(self) -> "CoLGroup":
        """Pontryagin dual: Zl^r (+) F  ->  (Ql/Zl)^r (+) F."""
        return CoLGroup(self)

    def __str__(self):
        if self.is_trivial:
            return "0"
        parts = []
        if self.free_rank:
            parts.append(f"Z{self.ell}" + (f"^{self.free_rank}" if self.free_rank > 1 else ""))
        parts.extend(f"C{self.ell ** e}" for e in self.torsion_exponents)
        return " x ".join(parts)


def free_level(ell: int, s: int, n: int) -> LModule:
    """(Z/l^s)^n, the level s reduction of a rank n lattice."""
    return LModule(ell, 0, (s,) * n)


@dataclass(frozen=True)
class CoLGroup:
    """Cofinitely generated l-primary torsion group.

    ``(Ql/Zl)^corank (+) finite``, stored through its Pontryagin dual, which
    is a finitely generated LModule with the same numerical data.

    >>> C = LModule(3, 2, (1,)).dual()
    >>> str(C)
    '(Q3/Z3)^2 x C3'
    >>> C.level(2)
    LModule(ell=3, free_rank=0, torsion_exponents=(2, 2, 1))
    """

    dual_module: LModule

    @property
    def ell(self) -> int:
        return self.dual_module.ell

    @property
    def corank(self) -> int:
        return self.dual_module.free_rank

    @property
    def finite_exponents(self) -> tuple:
        return self.dual_module.torsion_exponents

    @property
    def is_divisible(self) -> bool:
        return not self.finite_exponents

    @property
    def is_trivial(self) -> bool:
        return self.dual_module.is_trivial

    def dual(self) -> LModule:
        return self.dual_module

    def level(self, s: int) -> LModule:
        """The l^s-torsion subgroup, a finite module.

        (Ql/Zl) contributes Z/l^s per copy, a finite cyclic factor C(l^e)
        contributes Z/l^min(e,s).  For s >= 1, listed in that order, these
        are at least 1 and weakly decreasing: canonical with no sort.
        """
        s = index(s)
        if s < 0:
            raise ValueError("level must be >= 0")
        if not s:
            return LModule._trusted(self.ell, 0, ())
        fin = tuple([e if e < s else s for e in self.finite_exponents])
        return LModule._trusted(self.ell, 0, (s,) * self.corank + fin)

    def level_inclusion_matrix(self, s: int, t: int) -> IntMatrix:
        """Matrix of the natural inclusion of the l^s-torsion into the l^t-torsion.

        Coordinates on both sides are the dual module's generators; the
        inclusion scales coordinate i by l^(cap_i(t) - cap_i(s)).
        """
        if not 0 <= s <= t:
            raise ValueError("need 0 <= s <= t")
        ell = self.ell
        scales = []
        for e in self.dual_module.gen_orders():
            cap_s = s if e is None else min(e, s)
            cap_t = t if e is None else min(e, t)
            scales.append(ell ** (cap_t - cap_s))
        return IntMatrix.diagonal(scales)

    def __str__(self):
        if self.is_trivial:
            return "0"
        parts = []
        ell = self.ell
        if self.corank:
            parts.append(f"(Q{ell}/Z{ell})" + (f"^{self.corank}" if self.corank > 1 else ""))
        parts.extend(f"C{ell ** e}" for e in self.finite_exponents)
        return " x ".join(parts)


# ---------------------------------------------------------------------------
# presentations


def canonicalize_with_maps(ell: int, rel_cols: IntMatrix):
    """Collapse a presentation to canonical form, keeping the coordinate maps.

    The presented module is Z^p modulo the span of the columns of the p x q
    relation matrix rel_cols, read l-locally.  Invariant factors prime to l
    are units l-locally and their generators are dropped; mixed factors
    u*l^v keep only the l-part l^v.

    Returns (module, project, lift): project, (module gens) x (presentation
    gens), sends each presentation generator to canonical coordinates; lift,
    (presentation gens) x (module gens), picks a preimage of each canonical
    generator, and project @ lift is the identity on the module.

    >>> R = IntMatrix.from_rows([[2, 0], [0, 3]])
    >>> str(canonicalize_with_maps(2, R)[0])
    'C2'
    """
    sf = SmithForm.of(rel_cols)
    orders = sf.orders(ell)
    exps = tuple(v for v, _ in orders if v is not None)
    selected = [i for _, i in orders]
    return (LModule(ell, len(orders) - len(exps), exps),
            sf.U.take_rows(selected), sf.Uinv.take_cols(selected))


# ---------------------------------------------------------------------------
# maps


@dataclass(frozen=True)
class LMap:
    """Module map between canonical LModules, as an integer matrix.

    matrix has shape (codomain gens) x (domain gens) and acts on coefficient
    columns.  Entries are normalised: rows belonging to torsion generators of
    the codomain are reduced modulo the generator order.  A torsion domain
    generator can never map to a free codomain generator (Zl has no
    torsion), so those entries must be 0.
    """

    domain: LModule
    codomain: LModule
    matrix: IntMatrix

    def __post_init__(self):
        if self.domain.ell != self.codomain.ell:
            raise ValueError("map between modules over different primes")
        mat = self.matrix
        if not isinstance(mat, IntMatrix):
            mat = IntMatrix.from_rows(mat, self.domain.num_gens)
        if mat.rows != self.codomain.num_gens or mat.cols != self.domain.num_gens:
            raise ValueError(
                f"matrix shape {mat.rows}x{mat.cols} does not match map "
                f"{self.codomain.num_gens}x{self.domain.num_gens}"
            )
        ell = self.domain.ell
        f = self.domain.free_rank
        dom_exps = self.domain.torsion_exponents
        rows = []
        for i, (bo, row) in enumerate(zip(self.codomain.gen_orders(), mat.data)):
            if bo is None:
                # a free row: its torsion columns must vanish
                if any(row[f:]):
                    raise ValueError(
                        "torsion generator cannot map to the free part"
                    )
            else:
                m = ell ** bo
                row = tuple([x % m for x in row])
                for j, ao in enumerate(dom_exps, f):
                    if ao < bo and row[j] % ell ** (bo - ao):
                        raise ValueError(
                            f"entry ({i},{j}) violates well-definedness: "
                            f"needs divisibility by l^{bo - ao}"
                        )
            rows.append(row)
        object.__setattr__(self, "matrix", IntMatrix._trusted(mat.rows, mat.cols, tuple(rows)))

    # -- constructors -------------------------------------------------

    @classmethod
    def identity_on(cls, module: LModule) -> "LMap":
        return cls(module, module, IntMatrix.identity(module.num_gens))

    # -- map algebra --------------------------------------------------

    def compose(self, other: "LMap") -> "LMap":
        """self after other."""
        if other.codomain != self.domain:
            raise ValueError("composition mismatch")
        return LMap(other.domain, self.codomain, self.matrix @ other.matrix)

    def __add__(self, other: "LMap") -> "LMap":
        if self.domain != other.domain or self.codomain != other.codomain:
            raise ValueError("sum of maps with different (co)domains")
        return LMap(self.domain, self.codomain, self.matrix + other.matrix)

    def __sub__(self, other: "LMap") -> "LMap":
        return self + other.scale(-1)

    def scale(self, c: int) -> "LMap":
        return LMap(self.domain, self.codomain, self.matrix.scale(c))

    def is_zero_map(self) -> bool:
        return self.matrix.is_zero()


# ---------------------------------------------------------------------------
# kernels, cokernels, preimages


def kernel(f: LMap) -> LMap:
    """Kernel of a map, as its inclusion into the domain.

    Lift to presentations: u in Z^m represents a kernel element iff
    F u lies in the relation lattice of the codomain.  Two saturated integer
    kernel computations and one canonicalization, all exact.
    """
    dom, cod = f.domain, f.codomain
    block = f.matrix.hstack(cod.relation_cols())
    kb = integer_kernel_basis(block)
    B = kb.take_rows(range(dom.num_gens)) if kb.cols else IntMatrix.zeros(dom.num_gens, 0)
    # relations among the kernel generators: preimages of the domain relations
    block2 = B.hstack(dom.relation_cols())
    yb = integer_kernel_basis(block2)
    module, _, lift = canonicalize_with_maps(dom.ell, yb.take_rows(range(B.cols)))
    return LMap(module, dom, B @ lift)


def cokernel(f: LMap) -> LMap:
    """Cokernel of a map, as the projection from the codomain."""
    cod = f.codomain
    module, project, _ = canonicalize_with_maps(
        cod.ell, cod.relation_cols().hstack(f.matrix))
    return LMap(cod, module, project)


def preimage(f: LMap, B: IntMatrix) -> Optional[IntMatrix]:
    """Some X with f(X) = B column by column, reduced into f.domain, or None.

    Solves F X + R W = B over Z, R the codomain relation columns.
    """
    block = f.matrix.hstack(f.codomain.relation_cols())
    sol = solve_integer(block, B)
    if sol is None:
        return None
    return f.domain.reduce_columns(sol.take_rows(range(f.domain.num_gens)))


def _level_generators(sf: SmithForm, ell: int, s: int, orders) -> IntMatrix:
    # column k is l^(s - v) Q_i for the k-th (v, i) of orders; Q_i = row i of U
    return IntMatrix._trusted(len(orders), sf.U.rows, tuple([
        tuple([ell ** (s - v) * x for x in sf.U.data[i]])
        for v, i in orders])).transpose()


def level_kernel(sf: SmithForm, ell: int, s: int) -> LMap:
    """ker(A mod l^s) as its inclusion into (Z/l^s)^cols, read off
    sf = SmithForm.of(A^T) at any l and s.

    U A^T V = D gives A Q = W E with Q = U^T, Q^-1 = Uinv^T and W = V^-T
    unimodular and E = D^T diagonal.  So A x = 0 mod l^s exactly when
    y = Q^-1 x has d_i y_i = 0 mod l^s for every d_i: the kernel is the sum
    of the cyclic groups of order l^v_i generated by l^(s - v_i) Q_i, for
    the (v_i, i) of sf.orders(ell, s).
    """
    orders = sf.orders(ell, s)
    return LMap(LModule(ell, 0, tuple(v for v, _ in orders)),
                free_level(ell, s, sf.U.rows),
                _level_generators(sf, ell, s, orders))


def kernel_coordinates(sf: SmithForm, ell: int, s: int,
                       X: IntMatrix) -> Optional[IntMatrix]:
    """Coordinates of the columns of X in level_kernel(sf, ell, s)'s
    generators, or None when a column is not in ker(A mod l^s).

    y = Q^-1 x must have l^(s - v_i) | y_i for every i (y_i = 0 mod l^s
    where v_i = 0); the coordinate of a kept y_i is y_i / l^(s - v_i).  The
    result is checked to reproduce X mod l^s.
    """
    mod = ell ** s
    Y = (sf.Uinv.transpose() @ X).mod(mod)
    orders = sf.orders(ell, s)
    kept = {i: v for v, i in orders}
    if any(x % ell ** (s - kept.get(i, 0)) for i, row in enumerate(Y.data) for x in row):
        return None
    coords = IntMatrix(len(orders), X.cols, [
        [x // ell ** (s - v) for x in Y.data[i]] for v, i in orders])
    if not ((_level_generators(sf, ell, s, orders) @ coords) - X).mod(mod).is_zero():
        raise VerificationFailed("kernel coordinates do not reproduce the vectors")
    return coords


def homology_at(incoming: Optional[LMap], outgoing: Optional[LMap],
                carrier: LModule) -> LModule:
    """ker(outgoing) / im(incoming) at a chain position.

    None stands for the zero map off the end of a complex.  Without an
    outgoing map the kernel is the whole carrier, so the homology is the
    cokernel of incoming, with no kernel taken and nothing solved.
    """
    if outgoing is not None and outgoing.domain != carrier:
        raise ValueError("outgoing map does not start at the carrier")
    if incoming is not None and incoming.codomain != carrier:
        raise ValueError("incoming map does not end at the carrier")
    if outgoing is None:
        return carrier if incoming is None else cokernel(incoming).codomain
    k = kernel(outgoing)
    if incoming is None:
        return k.domain
    # incoming factors through the kernel: a complex has outgoing o incoming = 0
    mat = preimage(k, incoming.matrix)
    if mat is None:
        raise ValueError("map does not factor through the kernel")
    return cokernel(LMap(incoming.domain, k.domain, mat)).codomain


# ---------------------------------------------------------------------------
# tensors with coordinate bookkeeping


def tensor_with_index(M: LModule, N: LModule):
    """Tensor product with the pair ordering of its canonical generators.

    Returns (module, pairs) where pairs[p] = (i, j) names the generator
    x_i (x) y_j sitting at canonical position p.
    """
    if M.ell != N.ell:
        raise ValueError("tensor across primes")
    free, tors = [], []
    for i, x in enumerate(M.gen_orders()):
        for j, y in enumerate(N.gen_orders()):
            if x is None and y is None:
                free.append((i, j))
            else:
                e = y if x is None else x if y is None else min(x, y)
                tors.append((e, i, j))
    # free pairs first, then torsion by decreasing order; the sort is
    # stable, so ties keep their (i, j) order
    tors.sort(key=lambda t: -t[0])
    exps = tuple(e for e, _, _ in tors)
    return (LModule._trusted(M.ell, len(free), exps),
            free + [(i, j) for _, i, j in tors])


def tensor_maps(f: LMap, g: LMap) -> LMap:
    """f (x) g on tensor products in canonical coordinates."""
    dom, dpairs = tensor_with_index(f.domain, g.domain)
    cod, cpairs = tensor_with_index(f.codomain, g.codomain)
    rows = []
    for (i, k) in cpairs:
        row = []
        for (j, l) in dpairs:
            row.append(f.matrix.entry(i, j) * g.matrix.entry(k, l))
        rows.append(row)
    return LMap(dom, cod, IntMatrix.from_rows(rows, dom.num_gens))


def matrix_power_kron(m: IntMatrix, n: int) -> IntMatrix:
    """The n-fold Kronecker power of m; the 0th power is the 1 x 1 identity."""
    out = IntMatrix.identity(1)
    for _ in range(n):
        out = out.kron(m)
    return out
