"""Finite-level assembly and verification of the residue devissage.

The two short exact sequences around the assembled middle object, the
kernel/cokernel structure results and the finite-base five-term report
all live here.  Each report carries its facts and an ok flag; the CLI
alone spells them as check verdicts.  Middle
terms that the theory identifies with field cohomology are assembled as
direct sums of their outer terms (divisible extensions split as abelian
groups).
"""

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Sequence, Tuple

from .dualgraph import (
    DEFAULT_TREE_CAP,
    DivisorConfig,
    HomologyLattice,
    XiLattice,
    XiModule,
    build_xi,
    dual_fixed_rank,
    h1_lattice,
    invariant_rank,
    n_x,
    orbit_partition,
    perm_rows,
    tree_orbits,
    xi_lattice,
)
from .errors import InvalidInstance, VerificationFailed
from .exactlin import (
    CoLGroup,
    IntMatrix,
    LMap,
    LModule,
    SmithForm,
    cokernel,
    free_level,
    is_prime,
    is_prime_power,
    kernel,
    kernel_coordinates,
    level_kernel,
    preimage,
)
from .lprimary import FrobObject
from .procyclic import (CharPoly, h1, require_decided, torsion_frob,
                        weil_weight_check)

# ---------------------------------------------------------------------------
# instances


class SingularityInstance:
    """Combinatorial stand-in for a fibered surface around its bad fiber.

    divisors is the finite horizontal configuration, whose graph carries
    the component/node geometry with the Galois action, and jacobians is a
    list of (orbit representative, Weil polynomial, f) entries, one per
    positive-genus component orbit, f the degree of the field the orbit is
    defined over.  q is the base field size.

    The suites share objects computed once per instance, on first use: the
    cycle lattice with its fixed rank rho, the tree orbits (enumerated
    under tree_cap), their gcd m, the integer data of the kernel assembly
    with its Smith forms (xi_data), the level-s assembly xi(s) read from
    it, and the induced jacobian blocks.
    """

    def __init__(self, divisors: DivisorConfig, jacobians, ell: int, q: int,
                 max_level: int = 4, tree_cap: int = DEFAULT_TREE_CAP):
        if not isinstance(divisors, DivisorConfig):
            raise TypeError("divisors must be a DivisorConfig")
        require_decided(is_prime, ell, "l", "prime")
        require_decided(is_prime_power, q, "q", "a prime power")
        if gcd(q, ell) != 1:
            raise InvalidInstance(f"l = {ell} divides q = {q}")
        if max_level < 1:
            raise InvalidInstance(f"need max_level >= 1, got {max_level}")
        self.graph = graph = divisors.graph
        self.divisors = divisors
        self.ell = int(ell)
        self.q = int(q)
        self.max_level = int(max_level)
        self.tree_cap = int(tree_cap)
        self._xi = {}

        orbits = graph.component_orbits()
        orbit_of = {}
        for orb in orbits:
            for c in orb:
                orbit_of[c] = orb
        seen_orbits = set()
        checked = []
        for rep, poly, f in jacobians:
            rep = str(rep)
            if rep not in orbit_of:
                raise InvalidInstance(f"jacobian entry names unknown component {rep!r}")
            if not isinstance(poly, CharPoly):
                raise TypeError("jacobian data must be a CharPoly")
            orb = orbit_of[rep]
            if orb in seen_orbits:
                raise InvalidInstance(
                    f"two jacobian entries land in the orbit of {rep!r}")
            seen_orbits.add(orb)
            g = graph.genus(rep)
            if g == 0:
                raise InvalidInstance(
                    f"component {rep!r} has genus 0 and takes no jacobian")
            if int(f) != len(orb):
                raise InvalidInstance(
                    f"extension degree {f} does not match the orbit size "
                    f"{len(orb)} of {rep!r}")
            if poly.degree != 2 * g:
                raise InvalidInstance(
                    f"jacobian polynomial degree {poly.degree} does not match "
                    f"2 * genus = {2 * g} for {rep!r}")
            if poly.q != q ** int(f):
                raise InvalidInstance(
                    f"jacobian base {poly.q} is not q^f = {q ** int(f)} for {rep!r}")
            if not weil_weight_check(poly):
                raise InvalidInstance(
                    f"jacobian polynomial for {rep!r} is not pure of weight one")
            checked.append((rep, poly, int(f)))
        for orb in orbits:
            if graph.genus(orb[0]) > 0 and orb not in seen_orbits:
                raise InvalidInstance(
                    f"positive-genus orbit {orb} has no jacobian entry")
        if checked and len(graph.action) > 1:
            # a Weil polynomial describes one Frobenius; several independent
            # generators have no finite-field semantics for the jacobian part
            raise InvalidInstance(
                "jacobian data needs a single Frobenius generator")
        self.jacobians: Tuple[Tuple[str, CharPoly, int], ...] = tuple(
            sorted(checked))

    @cached_property
    def lattice(self) -> HomologyLattice:
        return h1_lattice(self.graph)

    @cached_property
    def orbits(self):
        return tree_orbits(self.graph, self.tree_cap)

    @cached_property
    def rho(self) -> int:
        return invariant_rank(self.lattice)

    @cached_property
    def m(self) -> int:
        return gcd(*(len(o) for o in self.orbits))

    @cached_property
    def xi_data(self) -> XiLattice:
        return xi_lattice(self.divisors)

    def xi(self, s: int) -> XiModule:
        if s not in self._xi:
            self._xi[s] = build_xi(self.xi_data, self.ell, s)
        return self._xi[s]

    @cached_property
    def jacobian_blocks(self) -> Tuple[FrobObject, ...]:
        """The induced jacobian block of each entry of jacobians, in order."""
        return tuple(induced_jacobian_block(poly, f, self.ell, self.q)
                     for _, poly, f in self.jacobians)

    @property
    def is_finite_field_mode(self) -> bool:
        """A single permutation generates the action: one Frobenius."""
        return len(self.graph.action) <= 1

    def jacobian_rank(self) -> int:
        """Total number of torsion coordinates over the base: sum of 2 g f."""
        return sum(p.degree * f for _, p, f in self.jacobians)


def induced_jacobian_block(poly: CharPoly, f: int, ell: int,
                           q: int) -> FrobObject:
    """Torsion of one jacobian orbit as a Frobenius object over the base.

    poly is the Weil polynomial of the orbit's jacobian over q^f, f the
    orbit size, ell the prime and q the base field size, as in one entry of
    SingularityInstance.jacobians.  The orbit's own Frobenius lives over
    q^f; induction to the base puts f shifted copies in a cycle whose wrap
    applies the extension matrix.  The symbolic q-power 1-g rides along
    globally: its f-th power restores the extension twist, and the
    single-step surplus is a unit conjugation.
    """
    ext = torsion_frob(poly, ell)
    wrap = ext.matrix
    n = wrap.rows
    size = n * f
    rows = [[0] * size for _ in range(size)]
    for i in range(f - 1):
        for d in range(n):
            rows[(i + 1) * n + d][i * n + d] = 1
    for a in range(n):
        for b in range(n):
            rows[a][(f - 1) * n + b] = wrap.entry(a, b)
    carrier = CoLGroup(LModule(ell, size))
    return FrobObject(carrier, IntMatrix.from_rows(rows, size), q,
                      qpow=ext.qpow)


# ---------------------------------------------------------------------------
# assembled sequences and their building blocks


@dataclass(frozen=True)
class SequenceReport:
    """One assembled sequence 0 -> A -> A (+) B -> B -> 0 and its checks.

    terms are the free level-s modules A, A (+) B and B.  The maps are
    identity blocks, the inclusion of A and the projection onto B, so the
    sequence is exact by construction, and equivariant for the
    block-diagonal action on the middle: exactness is not recomputed, and
    ok reads only the structure and crosschecks.  The tests prove
    exactness through homology for every (a, b, s) the suites assemble.
    """

    terms: Tuple[LModule, LModule, LModule]
    ok: bool
    structure: dict


def _split_terms(ell: int, s: int, a: int, b: int) -> Tuple[LModule, ...]:
    """A, A (+) B and B as free level-s modules of ranks a, a + b and b."""
    return tuple(free_level(ell, s, n) for n in (a, a + b, b))


# ---------------------------------------------------------------------------
# structure of the assembled middle object


def upsilon_structure(inst: SingularityInstance, s: int) -> SequenceReport:
    """Assemble the kernel object at level s and compare with its predicted
    shape: one divisible line per unit of genus-plus-cycle weight.

    The jacobian part contributes two coordinates per unit of genus (torsion
    of an abelian variety is 2g-dimensional), so instances with positive
    genus overshoot the genus-count prediction; the defect is reported and a
    nonzero defect fails the run rather than being absorbed.
    """
    if s < 1:
        raise ValueError("level must be >= 1")
    ell = inst.ell
    lat = inst.lattice
    jrank = inst.jacobian_rank()

    terms = _split_terms(ell, s, jrank, lat.rank)
    nx = n_x(inst.graph)
    defect = jrank + lat.rank - nx
    structure = {
        "observed": terms[1],
        "predicted": free_level(ell, s, nx),
        "defect": defect,
    }
    return SequenceReport(terms, defect == 0, structure)


# ---------------------------------------------------------------------------
# the cokernel of the cross-point sum


@dataclass(frozen=True)
class LambdaReport:
    """The cokernel Lambda at one level and its checks.

    frobenius_trivial_untwisted holds, per generator, whether it acts as
    the identity before the twist; ok holds when the cokernel is one
    cyclic level and every flag is set.
    """

    structure: LModule
    frobenius_trivial_untwisted: Tuple[bool, ...]
    twist: int
    ok: bool


def lambda_structure(inst: SingularityInstance, s: int) -> LambdaReport:
    """Cokernel of the per-component zero-sum families inside the point block.

    The families are the level-s kernel of the per-component sum, and the
    map to the support points is the support-point block of the lattice's
    incidence_blocks(), both on the y incidences.  The result is a single
    cyclic level with the point permutation acting trivially; the residue
    identification hangs one inverse Tate twist on it, so the recorded
    action is q^-1 times the verified identity.
    """
    xi = inst.xi(s)
    Y = xi.lattice.incidence_blocks()[1]
    sums = level_kernel(xi.lattice.component_sums, inst.ell, s)
    to_points = LMap(sums.codomain, free_level(inst.ell, s, Y.rows), Y)
    co = cokernel(to_points.compose(sums))

    structure_ok = co.codomain == free_level(inst.ell, s, 1)

    unit = IntMatrix.identity(co.codomain.num_gens)
    lift = preimage(co, unit)
    frob_flags = []
    for gp, dp in zip(inst.graph.action, inst.divisors.action):
        P = perm_rows(xi.lattice.support, {**gp, **dp}.__getitem__)
        frob_flags.append(lift is not None and co.codomain.reduce_columns(
            co.matrix @ lift.take_rows(P)) == unit)

    return LambdaReport(
        structure=co.codomain, frobenius_trivial_untwisted=tuple(frob_flags),
        twist=-1, ok=structure_ok and all(frob_flags))


# ---------------------------------------------------------------------------
# the two-step devissage


def devissage(inst: SingularityInstance,
              s: int) -> Tuple[SequenceReport, SequenceReport]:
    """Both short exact sequences around the assembled middle.

    Returns (outer, inner): the outer sequence splits the middle into the
    kernel object and the zero-sum divisor block; the inner one splits the
    kernel object into jacobian blocks and the cycle block.  Twists enter
    as unit scalars, so shapes are twist-independent; both sequences are
    exact and equivariant by construction (see SequenceReport), and the
    blocks are crosschecked against the level-s residue kernel built on the
    graph side.
    """
    ell = inst.ell
    c = inst.lattice.rank
    jrank = inst.jacobian_rank()
    ndiv = len(inst.divisors.ids)

    inner = upsilon_structure(inst, s)

    # the divisor action needs no check that it keeps the zero-sum block:
    # each generator acts by a permutation matrix, which preserves sums
    xi = inst.xi(s)
    terms = _split_terms(ell, s, jrank + c, ndiv - 1)

    # graph-side crosschecks at the same level: the cycle block must match
    # the kernel of phi, the divisor block the image of phi
    theta_ok = xi.phi_kernel.domain == free_level(ell, s, c)
    divisor_ok = cokernel(xi.phi_kernel).codomain == terms[2]

    structure = {
        "cycle_block_matches_residue_kernel": theta_ok,
        "divisor_block_matches_projection_image": divisor_ok,
    }
    outer = SequenceReport(terms, theta_ok and divisor_ok, structure)
    return outer, inner


# ---------------------------------------------------------------------------
# the finite-base five-term report


@dataclass(frozen=True)
class BhnLevelRecord:
    level: int
    h1_structure: LModule
    xi_h1_structure: LModule
    f_structure: LModule
    f_killed_by_m: bool
    equivariance_ok: bool
    level_routes_agree: bool


@dataclass(frozen=True)
class DisplayTerm:
    label: str
    status: str
    structure: str


@dataclass(frozen=True)
class BhnReport:
    rho: int
    m_value: int
    h1_corank: int
    levels: Tuple[BhnLevelRecord, ...]
    display: Tuple[DisplayTerm, ...]
    checks: Tuple[Tuple[str, bool], ...]


def _module_action(xi: XiModule, amb: Sequence[int]) -> IntMatrix:
    """Express an ambient permutation (perm_rows indices) in module coordinates."""
    sol = kernel_coordinates(xi.lattice.kernel, xi.ell, xi.level,
                             xi.inclusion.matrix.take_rows(amb))
    if sol is None:
        raise VerificationFailed("action does not descend to the kernel module")
    return sol


def _induced_on_cokernels(f: LMap, cok_dom: LMap, cok_cod: LMap) -> LMap:
    """The map between cokernels (given as projections) induced by f."""
    lift = preimage(cok_dom, IntMatrix.identity(cok_dom.codomain.num_gens))
    if lift is None:
        raise VerificationFailed("cokernel projection is not onto")
    moved = f.codomain.reduce_columns(f.matrix @ lift)
    h = LMap(cok_dom.codomain, cok_cod.codomain, cok_cod.matrix @ moved)
    lhs = h.compose(cok_dom)
    rhs = cok_cod.compose(f)
    if lhs.matrix != rhs.matrix:
        raise VerificationFailed("induced cokernel map fails its defining square")
    return h


def bhn_finite_field_report(inst: SingularityInstance) -> BhnReport:
    """Five-term report over a finite base with every claim re-verified.

    Checks, per level up to the instance cap: the first cohomology of the
    cycle coefficients (its corank and the dual lattice's fixed rank each
    equal the instance's fixed homology rank rho), the kernel term F of the
    map into the residue kernel cohomology (killed by the tree-orbit gcd),
    and the vanishing of the jacobian block cohomology by two routes, each
    computed for every entry.  checks holds each check's name and outcome,
    in report order.  The two field-cohomology terms in the display are
    assembled models and say so.  The spanning tree enumeration behind m
    runs under the instance's cap.
    """
    if not inst.is_finite_field_mode:
        raise InvalidInstance(
            "five-term report needs a single Frobenius permutation")
    ell, q = inst.ell, inst.q
    lat = inst.lattice
    c = lat.rank
    rho_value = inst.rho
    m_value = inst.m

    msigma = (lat.action_matrices[0] if lat.action_matrices
              else IntMatrix.identity(c))
    fo = FrobObject(CoLGroup(LModule(ell, c)), msigma, q)
    h1_group = h1(fo)
    h1_corank = h1_group.corank
    # coker(M - 1 mod l^s) read off M - 1's elementary divisors d_i alone:
    # the sum of the Z/l^min(v_l(d_i), s)
    minus_one = SmithForm.of(msigma - IntMatrix.identity(c))
    dual_rank = dual_fixed_rank(lat.action_matrices, c)

    levels = []
    for s in range(1, inst.max_level + 1):
        xi = inst.xi(s)
        amb = (xi.lattice.ambient_actions[0] if xi.lattice.ambient_actions
               else range(len(xi.lattice.var_names)))
        sigma_xi = _module_action(xi, amb)

        a_level = free_level(ell, s, c)
        act_a = LMap(a_level, a_level, msigma)
        act_x = LMap(xi.module, xi.module, sigma_xi)
        h1_inc = xi.h1_inclusion
        equiv = (act_x.compose(h1_inc).matrix == h1_inc.compose(act_a).matrix)

        cok_a = cokernel(act_a - LMap.identity_on(a_level))
        cok_x = cokernel(act_x - LMap.identity_on(xi.module))
        induced = _induced_on_cokernels(h1_inc, cok_a, cok_x)
        f_mod = kernel(induced)
        killed = cok_a.codomain.reduce_columns(f_mod.matrix.scale(m_value)).is_zero()
        routes_agree = cok_a.codomain == LModule(
            ell, 0, tuple(v for v, _ in minus_one.orders(ell, s)))
        levels.append(BhnLevelRecord(
            level=s, h1_structure=cok_a.codomain, xi_h1_structure=cok_x.codomain,
            f_structure=f_mod.domain, f_killed_by_m=killed,
            equivariance_ok=equiv, level_routes_agree=routes_agree))

    # both routes, the extension's own Frobenius and the induced block, are
    # taken for every entry before all() combines them, whatever they give
    jacobian_trivial = []
    for (_, poly, _), ind in zip(inst.jacobians, inst.jacobian_blocks):
        ext = torsion_frob(poly, ell)
        jacobian_trivial += (h1(ext).dual_module.is_trivial,
                             h1(ind).dual_module.is_trivial)

    div_orbit_count = len(orbit_partition(
        inst.divisors.ids, lambda d: [p[d] for p in inst.divisors.action]))
    display = (
        DisplayTerm("F", "computed",
                    f"killed by m = {m_value}; largest level exponent "
                    f"{max((max(r.f_structure.torsion_exponents, default=0) for r in levels), default=0)}"),
        DisplayTerm("H^1(k, Ql/Zl (x) H1(Gamma))", "computed",
                    f"(Ql/Zl)^{rho_value}"),
        DisplayTerm("H^3(K, Ql/Zl(2))", "modeled",
                    "assembled from H^1(k, level residue kernel); "
                    "not computed from the field K"),
        DisplayTerm("sum over codim-1 points of H^3(Kv, Ql/Zl(2))", "modeled",
                    f"{div_orbit_count} divisor orbit line(s)"),
        DisplayTerm("H^1(k, Ql/Zl)", "computed", "Ql/Zl"),
    )

    checks = (
        ("h1 corank equals the fixed homology rank", h1_corank == rho_value),
        ("dual lattice fixed rank agrees", dual_rank == rho_value),
        ("F killed by the tree orbit gcd at every level",
         all(r.f_killed_by_m for r in levels)),
        ("cycle inclusion equivariant at every level",
         all(r.equivariance_ok for r in levels)),
        ("level structures agree between routes",
         all(r.level_routes_agree for r in levels)),
        ("jacobian cohomology vanishes by both routes",
         all(jacobian_trivial)),
        # twist 0: transfer multiplies divisible Ql/Zl by the degree: onto
        ("corestriction stage onto", True),
    )
    return BhnReport(
        rho=rho_value, m_value=m_value, h1_corank=h1_corank,
        levels=tuple(levels), display=display, checks=checks)
