"""Independent brute-force oracles used to freeze expected values.

Everything in here deliberately avoids the library's own SNF/presentation
machinery: structures of finite modules are recovered by counting element
orders, subgroups by BFS closure, ranks by fraction Gaussian elimination.
The sympy_* oracles are second routes through sympy, which the library
itself never imports.  Some oracles are exceptions, earlier library routes
kept as references: per_level_xi, the assembly of Xi that build_xi made at
every level through the generic kernel and preimage solves, before it read
one Smith form per configuration; exactness_check, the homology route that
proved every assembled split sequence exact before the verdict was read off
its identity blocks; edge_recursion_trees with frozenset_tree_orbits,
the spanning-tree enumeration over the graph's own edges and the orbit
partition of trees as frozensets of edges, before trees were enumerated
through the component multigraph; recursive_multigraph_trees,
edge_tuple_spanning_trees, edge_tuple_orbit_positions and
edge_tuple_tree_orbits, that enumeration recursing down to one vertex and
the trees held as edge tuples with the bitmask of edge i at bit i, before
a branch that is a tree was emitted whole and a tree was one bitmask from
enumeration to orbit; co_cokernel,
the cokernel of a discrete map that left_exactness_probe took besides its
homology; box_twist_nullity, the kernel nullity of one twisted box power
built afresh, before each twist read one box power per (P, j);
hessenberg_mod, the Hessenberg form of each box power mod NULLITY_PRIME,
and hessenberg_box_nullity, the twist nullity read off it, before each
twist took one sparse rank of the shifted box power itself;
row_copying_rank_mod and interleaved_hessenberg_mod, the forms of rank_mod
and hessenberg_mod before they eliminated in place on sparse residue rows
and batched each step's column operations; integer_newton_eigenproduct_poly, the composed power of
degree (2g)^j that eigenproduct_poly built before it split the products by
exponent shape, Newton's recurrence written term by term;
dense_smith_with_inverses, the Smith form before it skipped zeros and
stopped at the first unit pivot; tree_solve, the per-tree solver of vertex
sums on a spanning tree, and per_column_orbit_section, the section of one
tree orbit by a tree_solve call per (column, tree) pair, before
_orbit_section pushed every column through one leaf order per tree, both
taking trees as edge tuples through validate_edge_tree, the parser
build_psi used before it took tree masks;
canonical_orders and smith_level_orders, the two ways canonicalize_with_maps
and level_kernel classified a Smith diagonal before both read
SmithForm.orders; divisor_action, the divisor permutation the instance
parser induced from one graph generator and handed to DivisorConfig,
before DivisorConfig derived its action itself; perm_matrix, the dense
0/1 matrix of a coordinate permutation that the graph code multiplied by
before it reindexed rows with perm_rows; tensor_maps_frob_power, the box
power of a Frobenius object as repeated tensor_maps products of two maps,
before box_frob_power took one Kronecker power; randint_random_cogroup and
randint_torsbis_f_st, the draws of random_cogroup and of torsbis_maps's
lifts through rng.randint, the groups built through the validating
LModule and f_st through from_rows and a transpose, before both drew with
randrange and built their values trusted; sorted_filtered_level, the
torsion level sorted with its zero exponents filtered out, before
CoLGroup.level took its closed form; identity_kernel_homology_at, the
homology through the identity kernel and a preimage solve where no map
leaves the position, before homology_at took the cokernel of the incoming
map there; companion_matrix, the companion matrix of P, the Frobenius
model of CharPoly.companion before CharPoly.frobenius_matrix put the
companions of rad P, rad(P / rad P), ... on the block diagonal;
tensor_power_with_index, the n-th tensor power with the generator tuple
at each canonical position, through which torsbis_maps indexed f_st and
took a product over the legs per matrix entry, before it built each
column as a Kronecker product of its leg lifts; unit_box_power, the box
power started from the unit in n products, before box_power started from
A in n - 1.
float_root_tuple_count counts ordered root tuples with a given product in
floating point.  apply multiplies an IntMatrix into a vector, the
IntMatrix.apply method that only tests called.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import product
from operator import mul
from types import SimpleNamespace

import sympy


def subgroup_closure(orders, gens):
    """The subgroup of prod Z/orders[i] generated by gens, as a set of tuples."""
    zero = tuple(0 for _ in orders)
    seen = {zero}
    frontier = [zero]
    norm = [tuple(int(x) % o for x, o in zip(g, orders)) for g in gens]
    while frontier:
        x = frontier.pop()
        for g in norm:
            y = tuple((a + b) % o for a, b, o in zip(x, g, orders))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def structure_from_counts(ell, counts):
    """Recover torsion exponents from the l^k-torsion element counts.

    counts[k] = number of elements killed by l^k, for k = 0..K where the
    counts stabilise.  For an abelian l-group these counts pin down the
    isomorphism type.
    """
    logs = []
    for c in counts:
        e = 0
        while ell ** e < c:
            e += 1
        assert ell ** e == c, "count is not a power of l"
        logs.append(e)
    # number of cyclic factors with exponent >= k
    ge = [logs[k] - logs[k - 1] for k in range(1, len(logs))]
    exps = []
    for k in range(1, len(ge) + 1):
        here = ge[k - 1] - (ge[k] if k < len(ge) else 0)
        exps.extend([k] * here)
    return tuple(sorted(exps, reverse=True))


def group_structure(ell, orders, elements):
    """Torsion exponents of a finite subgroup given explicitly as tuples."""
    counts = []
    k = 0
    while True:
        c = 0
        for x in elements:
            if all((v * ell ** k) % o == 0 for v, o in zip(x, orders)):
                c += 1
        counts.append(c)
        if c == len(elements):
            break
        k += 1
    return structure_from_counts(ell, counts)


def quotient_structure(ell, orders, subgroup):
    """Torsion exponents of (prod Z/orders) / subgroup by coset counting."""
    h = len(subgroup)
    counts = []
    k = 0
    while True:
        c = 0
        for x in product(*[range(o) for o in orders]):
            y = tuple((v * ell ** k) % o for v, o in zip(x, orders))
            if y in subgroup:
                c += 1
        assert c % h == 0
        counts.append(c // h)
        if counts[-1] * h == _prod(orders):
            break
        k += 1
    return structure_from_counts(ell, counts)


def _prod(xs):
    out = 1
    for x in xs:
        out *= x
    return out


def brute_kernel_structure(ell, dom_orders, cod_orders, matrix):
    """Kernel structure of a matrix map between products of cyclic groups."""
    kernel = []
    for x in product(*[range(o) for o in dom_orders]):
        img = [sum(matrix[i][j] * x[j] for j in range(len(x))) % cod_orders[i]
               for i in range(len(cod_orders))]
        if all(v == 0 for v in img):
            kernel.append(x)
    return group_structure(ell, dom_orders, kernel)


def brute_cokernel_structure(ell, dom_orders, cod_orders, matrix):
    """Cokernel structure of a matrix map between products of cyclic groups."""
    gens = [tuple(matrix[i][j] for i in range(len(cod_orders)))
            for j in range(len(dom_orders))]
    sub = subgroup_closure(cod_orders, gens)
    return quotient_structure(ell, cod_orders, sub)


def apply(M, vec):
    """The IntMatrix M times the vector vec, as a tuple."""
    if len(vec) != M.cols:
        raise ValueError("vector length mismatch")
    return tuple(sum(a * v for a, v in zip(row, vec)) for row in M.data)


def rational_rank(rows):
    """Rank over Q by fraction Gaussian elimination (no SNF involved)."""
    a = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    cols = len(a[0]) if a else 0
    for j in range(cols):
        piv = None
        for i in range(rank, len(a)):
            if a[i][j] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pv = a[rank][j]
        a[rank] = [x / pv for x in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][j] != 0:
                f = a[i][j]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
        if rank == len(a):
            break
    return rank


def rational_nullity(rows, cols):
    return cols - rational_rank(rows) if rows else cols


def fraction_eigenproduct_poly(P, j):
    """Coefficients (leading-first) of the j-fold root product polynomial.

    Newton's identities in Fraction arithmetic, integrality checked only at
    the end: the slow route the library's integer recurrence replaces.
    """
    if j == 0:
        return (1, -1)
    D = P.degree ** j
    s = [pow(tk, j) for tk in P.power_sums(D)]
    E = [Fraction(1)]
    for k in range(1, D + 1):
        acc = Fraction(0)
        for i in range(1, k + 1):
            acc += (-1) ** (i - 1) * E[k - i] * s[i - 1]
        E.append(acc / k)
    coeffs = []
    for k in range(D + 1):
        c = (-1) ** k * E[k]
        if c.denominator != 1:
            raise ArithmeticError("composed power polynomial not integral")
        coeffs.append(int(c))
    return tuple(coeffs)


def fraction_root_multiplicity(coeffs, target):
    """Multiplicity of a rational root by Fraction synthetic division."""
    v = Fraction(target)
    cur = [Fraction(c) for c in coeffs]
    mult = 0
    while len(cur) > 1:
        out = [cur[0]]
        for c in cur[1:]:
            out.append(out[-1] * v + c)
        if out[-1] != 0:
            break
        mult += 1
        cur = out[:-1]
    return mult


def trial_division_is_prime(n):
    """Primality by trial division: exact for every n, slow for large n."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def trial_division_is_prime_power(n):
    """n = p^k for a prime p and k >= 1, by dividing out the least factor."""
    if n < 2:
        return False
    p = next(d for d in range(2, n + 1) if n % d == 0)
    while n % p == 0:
        n //= p
    return n == 1


def composed_torsbis_commutes(data):
    """Whether incl o iso_s = iso_t o f_st for a TorsBisData, through two
    LMap compositions: the route torsbis_maps took before it compared incl
    with f_st directly.  iso_s and iso_t are the identity maps from the
    tensor powers of levels (f_st's domain and codomain) onto the levels of
    the box power (incl's domain and codomain)."""
    from devissage.exactlin import IntMatrix, LMap

    def identification(src, dst):
        return LMap(src, dst, IntMatrix.identity(src.num_gens))

    iso_s = identification(data.f_st.domain, data.incl.domain)
    iso_t = identification(data.f_st.codomain, data.incl.codomain)
    return data.incl.compose(iso_s) == iso_t.compose(data.f_st)


Complex = namedtuple("Complex", "terms maps")


def split_sequence(ell, s, a, b):
    """0 -> A -> A (+) B -> B -> 0 on free level-s modules of ranks a, b,
    with the identity-block inclusion and projection: the sequence that
    sequences.upsilon_structure and sequences.devissage assemble."""
    from devissage.exactlin import IntMatrix, LMap, free_level

    t_a, t_mid, t_b = (free_level(ell, s, n) for n in (a, a + b, b))
    inc = LMap(t_a, t_mid, IntMatrix.from_rows(
        [[int(i == j) for j in range(a)] for i in range(a + b)], a))
    proj = LMap(t_mid, t_b,
                IntMatrix.zeros(b, a).hstack(IntMatrix.identity(b)))
    return Complex((t_a, t_mid, t_b), (inc, proj))


def _module_desc(m):
    if m.is_trivial:
        return "0"
    parts = [f"Z/{m.ell}^{e}" for e in m.torsion_exponents]
    if m.free_rank:
        parts = [f"Z{m.ell}^{m.free_rank}"] + parts
    return " x ".join(parts)


def exactness_check(c):
    """Exactness of a Complex through the homology at every term.

    The complex is padded with zero off both ends.  Maps that do not join
    consecutive terms raise ValueError.  Returns a namespace of the terms,
    is_complex, the homology per term (empty when not a complex), its
    position_verdicts and the verdict: EXACT, HOMOLOGY, or FAIL for maps
    whose consecutive composites do not vanish.
    """
    from devissage.exactlin import homology_at

    terms, maps = tuple(c.terms), tuple(c.maps)
    if len(maps) != len(terms) - 1 or not terms:
        raise ValueError(
            f"{len(terms)} terms need {max(len(terms) - 1, 0)} maps, "
            f"got {len(maps)}")
    for i, f in enumerate(maps):
        if f.domain != terms[i] or f.codomain != terms[i + 1]:
            raise ValueError(f"map {i} does not join terms {i} and {i + 1}")
    if not all(maps[i + 1].compose(maps[i]).matrix.is_zero()
               for i in range(len(maps) - 1)):
        return SimpleNamespace(terms=terms, is_complex=False, homology=(),
                               position_verdicts=("NOT A COMPLEX",) * len(terms),
                               verdict="FAIL")
    hom = tuple(
        homology_at(maps[i - 1] if i > 0 else None,
                    maps[i] if i < len(maps) else None, terms[i])
        for i in range(len(terms)))
    return SimpleNamespace(
        terms=terms, is_complex=True, homology=hom,
        position_verdicts=tuple("EXACT" if h.is_trivial
                                else f"homology {_module_desc(h)}" for h in hom),
        verdict="EXACT" if all(h.is_trivial for h in hom) else "HOMOLOGY")


def entrywise_lmap_matrix(domain, codomain, rows):
    """Normalised rows of LMap(domain, codomain, rows), cell by cell.

    The validation LMap made one entry at a time before its row-wise form:
    the same checks in the same order, so the first bad input raises the
    same exception with the same message.  rows must have the map's shape.
    """
    if domain.ell != codomain.ell:
        raise ValueError("map between modules over different primes")
    ell = domain.ell
    out = []
    for i, bo in enumerate(codomain.gen_orders()):
        row = []
        for j, ao in enumerate(domain.gen_orders()):
            x = rows[i][j]
            if bo is None:
                if ao is not None:
                    if x != 0:
                        raise ValueError(
                            "torsion generator cannot map to the free part"
                        )
            else:
                x %= ell ** bo
                if ao is not None:
                    need = max(bo - ao, 0)
                    if need and x % ell ** need != 0:
                        raise ValueError(
                            f"entry ({i},{j}) violates well-definedness: "
                            f"needs divisibility by l^{need}"
                        )
            row.append(x)
        out.append(tuple(row))
    return tuple(out)


def generator_expression_lmodule_check(ell, free_rank, exponents):
    """The canonical-form checks LModule made with generator expressions.

    Same checks, order and messages; returns the normalised exponents.
    """
    if not trial_division_is_prime(ell):
        raise ValueError(f"l must be prime, got {ell}")
    if free_rank < 0:
        raise ValueError("negative free rank")
    exps = tuple(int(e) for e in exponents)
    if any(e < 1 for e in exps):
        raise ValueError("torsion exponents must be >= 1")
    if any(exps[i] < exps[i + 1] for i in range(len(exps) - 1)):
        raise ValueError("torsion exponents must be weakly decreasing")
    return exps


def sorted_key_tensor_index(M, N):
    """Generator pairs of M (x) N in canonical order, by sorting 4-tuple keys.

    Free x free pairs first in (i, j) order, then torsion pairs by
    decreasing order and then (i, j): the order tensor_with_index used
    to build with one keyed sort.
    """
    a, b = M.gen_orders(), N.gen_orders()
    keyed = []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if x is None and y is None:
                keyed.append(((0, i, j), i, j))
            else:
                e = y if x is None else x if y is None else min(x, y)
                keyed.append(((1, -e, i, j), i, j))
    keyed.sort()
    return [(i, j) for _, i, j in keyed]


def incidence_layout_rows(graph, config):
    """Per-component sum rows and support point rows on the incidences.

    The layout lambda_structure built for itself before it read Xi's
    constraints: the incidences (component, point on it) with components in
    order and each component's points sorted, one row per component summing
    its incidences and one row per support point collecting those at it.
    """
    incid = []
    for comp in graph.component_ids:
        pts = sorted(tuple(graph.component_nodes(comp)) + config.free_on(comp))
        incid.extend((comp, p) for p in pts)
    points = list(config.support_points())
    comp_rows = [[0] * len(incid) for _ in graph.component_ids]
    point_rows = [[0] * len(incid) for _ in points]
    for j, (comp, p) in enumerate(incid):
        comp_rows[graph.component_ids.index(comp)][j] = 1
        point_rows[points.index(p)][j] = 1
    return comp_rows, point_rows


def companion_matrix(P):
    """The companion matrix of a CharPoly P: ones below the diagonal and
    minus P's constant-first coefficients down the last column."""
    from devissage.exactlin import IntMatrix
    n = P.degree
    low = P.low_coeffs()
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = -low[i]
    return IntMatrix.from_rows(rows, n)


def sympy_is_squarefree(coeffs):
    """deg gcd(P, P') = 0 over Q, by sympy; coefficients leading first."""
    x = sympy.Symbol("x")
    p = sympy.Poly(coeffs, x)
    return sympy.gcd(p, p.diff(x)).degree() == 0


def sympy_gcd_degree(a, b):
    """Degree of gcd(a, b) over Q, by sympy; coefficients leading first."""
    x = sympy.Symbol("x")
    return sympy.gcd(sympy.Poly(a, x), sympy.Poly(b, x)).degree()


def sympy_weil_check(coeffs, q):
    """Every root of P has absolute value sqrt q, by sympy.

    P is pure of weight one exactly when it satisfies the q-functional
    equation and R(u) = Res_T(P(T), T^2 - uT + q), which is q^g h(u)^2, has
    all its 2g roots (with multiplicity) real in [-2 sqrt q, 2 sqrt q].
    The route never builds h itself.
    """
    T, u = sympy.symbols("T u")
    P = sympy.Poly(coeffs, T).as_expr()
    n = len(coeffs) - 1
    if sympy.expand(T ** n * P.subs(T, sympy.Rational(q) / T)
                    - q ** (n // 2) * P) != 0:
        return False
    R = sympy.Poly(sympy.resultant(P, T ** 2 - u * T + q, T), u)
    roots = R.real_roots()
    return len(roots) == n and all(bool(r ** 2 <= 4 * q) for r in roots)


def sympy_det(rows):
    """Determinant by sympy (1 for the empty matrix)."""
    return int(sympy.Matrix(rows).det()) if rows else 1


def sympy_rank(rows):
    """Rank over Q by sympy."""
    return sympy.Matrix(rows).rank() if rows else 0


def sympy_laplacian_cofactor(lap_rows):
    """The Laplacian minor without its last row and column, by sympy."""
    n = len(lap_rows)
    return sympy_det([row[:n - 1] for row in lap_rows[:n - 1]])


def per_level_xi(graph, config, ell, s):
    """Xi at level s by generic solves mod l^s, rebuilt from nothing.

    The constraints C (component sums, then support points; alphas, then
    y incidences), their kernel K through exactlin.kernel, the cycle
    inclusion factored through K by a preimage solve, the kernel of phi,
    and the cokernel of the support-point map on the kernel of the
    per-component sum (Lambda).  Returns a namespace of those objects with
    the cycle embedding H.
    """
    from devissage.dualgraph import _boundary_matrix
    from devissage.exactlin import (
        IntMatrix, LMap, cokernel, free_level, integer_kernel_basis, kernel,
        preimage)

    div_ids = config.ids
    ndiv = len(div_ids)
    div_index = {d: i for i, d in enumerate(div_ids)}
    var_names = [("alpha", d) for d in div_ids]
    comp_points = {}
    for c in graph.component_ids:
        comp_points[c] = tuple(sorted(graph.component_nodes(c)
                                      + config.free_on(c)))
        var_names.extend(("y", c, p) for p in comp_points[c])
    vindex = {name: i for i, name in enumerate(var_names)}
    nvars = len(var_names)

    rows = []
    for c in graph.component_ids:
        row = [0] * nvars
        for p in comp_points[c]:
            row[vindex[("y", c, p)]] = 1
        rows.append(row)
    for w in config.support_points():
        row = [0] * nvars
        if w in div_index:
            row[div_index[w]] = 1
            carriers = [config.anchor(w)[1]]
        else:
            anchored = config.anchored_at(w)
            if anchored is not None:
                row[div_index[anchored]] = 1
            carriers = graph.node_components(w)
        for c in carriers:
            row[vindex[("y", c, w)]] = 1
        rows.append(row)
    C = IntMatrix.from_rows(rows, nvars)

    ambient = free_level(ell, s, nvars)
    K = kernel(LMap(ambient, free_level(ell, s, C.rows), C))
    proj = IntMatrix.from_rows(
        [[1 if j == i else 0 for j in range(nvars)] for i in range(ndiv)], nvars)
    phi = LMap(ambient, free_level(ell, s, ndiv), proj).compose(K)

    cycles = integer_kernel_basis(_boundary_matrix(graph))
    hrows = [[0] * cycles.cols for _ in range(nvars)]
    for j, (comp, node) in enumerate(graph.edges):
        for k in range(cycles.cols):
            hrows[vindex[("y", comp, node)]][k] = cycles.entry(j, k)
    H = IntMatrix.from_rows(hrows, cycles.cols)
    h1_inclusion = LMap(free_level(ell, s, H.cols), K.domain,
                        preimage(K, H))

    ncomp = len(graph.component_ids)
    y_cols = range(ndiv, nvars)
    y_level = free_level(ell, s, len(y_cols))
    per_comp_sum, to_points = (
        LMap(y_level, free_level(ell, s, len(r)), C.take_rows(r).take_cols(y_cols))
        for r in (range(ncomp), range(ncomp, C.rows)))
    lam = cokernel(to_points.compose(kernel(per_comp_sum)))
    return SimpleNamespace(
        module=K.domain, inclusion=K, phi_kernel=kernel(phi),
        h1_inclusion=h1_inclusion, cycle_embedding=H,
        lambda_cokernel=lam.codomain)


def edge_recursion_trees(graph):
    """Every spanning tree of a DualGraph, each a sorted tuple of edges, in
    sorted order, by deletion/contraction over the graph's own edges.

    In sorted edge order, the branch that keeps an edge unions its ends in
    a union-find forest; a branch stops once the forest plus the remaining
    edges can no longer connect the graph.
    """
    verts = graph.vertex_ids
    vindex = {v: i for i, v in enumerate(verts)}
    edges = [(vindex[c], vindex[n]) for c, n in graph.edges]
    target = len(verts) - 1
    found = []

    def find(parent, x):
        while parent[x] != x:
            x = parent[x]
        return x

    def connected_using(parent, start):
        probe = list(parent)
        parts = sum(1 for i in range(len(verts)) if probe[i] == i)
        for a, b in edges[start:]:
            ra, rb = find(probe, a), find(probe, b)
            if ra != rb:
                probe[ra] = rb
                parts -= 1
        return parts == 1

    def rec(i, parent, chosen):
        if len(chosen) == target:
            found.append(chosen)
            return
        if len(chosen) + len(edges) - i < target:
            return
        if not connected_using(parent, i):
            return
        ra, rb = find(parent, edges[i][0]), find(parent, edges[i][1])
        if ra != rb:
            joined = list(parent)
            joined[ra] = rb
            rec(i + 1, joined, chosen + (i,))
        rec(i + 1, parent, chosen)

    rec(0, list(range(len(verts))), ())
    return tuple(sorted(tuple(graph.edges[i] for i in t) for t in found))


def frozenset_tree_orbits(graph, trees):
    """Orbits of the given trees under graph.action by BFS closure over
    frozensets of edges, each a sorted tuple of sorted trees, in sorted
    order; None when an image falls outside the trees."""
    tree_set = {frozenset(t) for t in trees}
    seen, orbits = set(), []
    for start in sorted(tree_set, key=sorted):
        if start in seen:
            continue
        orbit, frontier = {start}, [start]
        while frontier:
            t = frontier.pop()
            for p in graph.action:
                img = frozenset((p[c], p[n]) for c, n in t)
                if img not in tree_set:
                    return None
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
        seen |= orbit
        orbits.append(tuple(sorted(tuple(sorted(t)) for t in orbit)))
    return tuple(sorted(orbits))


def recursive_multigraph_trees(nverts, ends):
    """_multigraph_trees before it emitted a tree branch whole: spanning
    trees of a connected loopless multigraph as edge index tuples, by
    deletion/contraction that recurses down to a single vertex."""
    from devissage.dualgraph import _components
    found = []

    def rec(edges, alive, chosen):
        if len(alive) == 1:
            found.append(chosen)
            return
        (a, b, j), rest = edges[0], edges[1:]
        merged = [(a if x == b else x, a if y == b else y, k)
                  for x, y, k in rest]
        rec([e for e in merged if e[0] != e[1]], alive - {b}, chosen + (j,))
        if len(_components(alive, [e[:2] for e in rest])) == 1:
            rec(rest, alive, chosen)

    rec([(a, b, j) for j, (a, b) in enumerate(ends)], frozenset(range(nverts)),
        ())
    return found


def edge_tuple_spanning_trees(graph):
    """spanning_trees before trees were edge bitmasks: each tree a tuple of
    edges in graph.edges order, built from sorted edge index tuples through
    the product of the halves at the nodes outside each multigraph tree,
    in sorted order."""
    eindex = {e: i for i, e in enumerate(graph.edges)}
    cindex = {c: i for i, c in enumerate(graph.component_ids)}
    pairs = [graph.node_components(n) for n in graph.nodes]
    halves = [(eindex[a, n], eindex[b, n])
              for (a, b), n in zip(pairs, graph.nodes)]
    found = []
    for t in recursive_multigraph_trees(
            len(cindex), [(cindex[a], cindex[b]) for a, b in pairs]):
        inside = [i for j in t for i in halves[j]]
        kept = set(t)
        outside = [h for j, h in enumerate(halves) if j not in kept]
        found.extend(tuple(sorted(inside + list(pick)))
                     for pick in product(*outside))
    found.sort()
    return tuple(tuple(graph.edges[i] for i in t) for t in found)


def edge_tuple_orbit_positions(graph, trees, not_closed):
    """_tree_orbit_positions before it read masks: trees are sorted tuples
    of edges, turned into masks with edge i at bit i and mapped one byte
    at a time, and the orbits partitioned as sets of positions."""
    edges = graph.edges
    bit_of = {e: 1 << i for i, e in enumerate(edges)}
    masks = [sum(map(bit_of.__getitem__, t)) for t in trees]
    position = {mask: k for k, mask in enumerate(masks)}
    nbytes = (len(edges) + 7) // 8
    data = [mask.to_bytes(nbytes, "little") for mask in masks]
    images = []
    for p in graph.action:
        moved = [bit_of[graph.edge_image(p, e)] for e in edges]
        img = [0] * len(masks)
        for c in range(nbytes):
            table = [0]
            for b in moved[8 * c:8 * c + 8]:
                table += [x | b for x in table]
            img = [x | table[d[c]] for x, d in zip(img, data)]
        pos = list(map(position.get, img))
        if None in pos:
            raise not_closed
        images.append(pos)
    seen, orbits = set(), []
    for start in range(len(trees)):
        if start in seen:
            continue
        orbit, frontier = {start}, [start]
        while frontier:
            k = frontier.pop()
            for img in images:
                if img[k] not in orbit:
                    orbit.add(img[k])
                    frontier.append(img[k])
        seen |= orbit
        orbits.append(sorted(orbit))
    return orbits


def edge_tuple_tree_orbits(graph):
    """tree_orbits before trees were edge bitmasks: orbits of
    edge_tuple_spanning_trees, each a tuple of trees in tree order, the
    orbits sorted by their position lists."""
    trees = edge_tuple_spanning_trees(graph)
    orbits = edge_tuple_orbit_positions(graph, trees, AssertionError(
        "action image of a spanning tree is not a spanning tree"))
    return tuple(tuple(trees[k] for k in o) for o in sorted(orbits))


def co_cokernel(f):
    """Cokernel of a discrete map: dual of the kernel of the dual.

    Returns (quotient, projection CoMap).
    """
    from devissage.exactlin import CoLGroup, kernel
    from devissage.lprimary import CoMap
    k = kernel(f.dual_map)
    quo = CoLGroup(k.domain)
    return quo, CoMap(f.codomain, quo, k)


def box_twist_nullity(P, ell, j, r):
    """Nullity of the cleared Frobenius - 1 on the dual of A{l}^box j (r),
    with the twisted box power built for this twist alone, by its integer
    kernel."""
    from devissage.exactlin import integer_kernel_basis
    from devissage.lprimary import cleared_minus_one
    from devissage.procyclic import box_torsion_frob
    X = box_torsion_frob(P, ell, j, r)
    return integer_kernel_basis(
        cleared_minus_one(X.matrix.transpose(), X.q, X.qpow)).cols


def hessenberg_mod(A, p):
    """An upper Hessenberg matrix similar to the square A over Z/p, p prime.

    Gaussian similarity (Cohen, Algorithm 2.2.9): each step's row operations
    are followed by their inverse column operations, so rank(H - mu) equals
    rank(A - mu) mod p at every shift mu.
    """
    from devissage.exactlin import IntMatrix
    n = A.rows
    if A.cols != n:
        raise ValueError("Hessenberg form of a non-square matrix")
    h = [[x % p for x in r] for r in A.data]
    for k in range(n - 2):
        i = next((i for i in range(k + 1, n) if h[i][k]), None)
        if i is None:
            continue
        # move the pivot to the subdiagonal: swap rows, then the columns
        h[i], h[k + 1] = h[k + 1], h[i]
        for r in h:
            r[i], r[k + 1] = r[k + 1], r[i]
        top = h[k + 1]
        inv = pow(top[k], -1, p)
        cs = [h[i][k] * inv % p for i in range(k + 2, n)]
        # L H L^-1 for L = I - sum c_i e_i e_(k+1)^T: row_i -= c_i row_(k+1)
        # (both 0 left of k), then one column update col_(k+1) += sum c_i col_i
        for i, c in enumerate(cs, k + 2):
            if c:
                row = h[i]
                row[k:] = [(x - c * y) % p for x, y in zip(row[k:], top[k:])]
        if any(cs):
            for r in h:
                r[k + 1] = (r[k + 1] + sum(map(mul, cs, r[k + 2:]))) % p
    return IntMatrix(n, n, h)


def hessenberg_box_nullity(P, ell, j, r):
    """The twist nullity of the box power by its Hessenberg form H mod
    p = NULLITY_PRIME: full rank of H - q^-a mod p proves nullity 0, and a
    short rank, or p | q, takes the integer kernel of q^a K - 1."""
    from devissage.exactlin import (
        NULLITY_PRIME, IntMatrix, integer_kernel_basis, rank_mod)
    from devissage.lprimary import cleared_minus_one
    from devissage.procyclic import box_torsion_frob
    X = box_torsion_frob(P, ell, j, 0)
    K = X.matrix.transpose()
    a, p, n = X.qpow + r, NULLITY_PRIME, K.rows
    if P.q % p:
        H = hessenberg_mod(K, p)
        shift = IntMatrix.diagonal((-pow(P.q, -a, p),) * n)
        if rank_mod((H + shift).residue_rows(p), p) == n:
            return 0
    return integer_kernel_basis(cleared_minus_one(K, P.q, a)).cols


def row_copying_rank_mod(A, p):
    """Rank of A over Z/p by the elimination rank_mod made before it worked
    in place: every remaining row is copied, without its first entry, at
    every column."""
    rows = [[x % p for x in r] for r in A.data]
    rank = 0
    for _ in range(A.cols):
        # each row holds the columns not yet eliminated, the current one first
        i = next((i for i, r in enumerate(rows) if r[0]), None)
        if i is None:
            rows = [r[1:] for r in rows]
            continue
        top = rows.pop(i)
        rank += 1
        inv = pow(top[0], -1, p)
        tail = [x * inv % p for x in top[1:]]
        rest = []
        for r in rows:
            c = r[0]
            rest.append([(x - c * y) % p for x, y in zip(r[1:], tail)]
                        if c else r[1:])
        rows = rest
        if not rows:
            break
    return rank


def interleaved_hessenberg_mod(A, p):
    """hessenberg_mod with each row operation followed at once by its inverse
    column operation, one i at a time, as Cohen's Algorithm 2.2.9 states it."""
    from devissage.exactlin import IntMatrix
    n = A.rows
    h = [[x % p for x in r] for r in A.data]
    for k in range(n - 2):
        i = next((i for i in range(k + 1, n) if h[i][k]), None)
        if i is None:
            continue
        h[i], h[k + 1] = h[k + 1], h[i]
        for r in h:
            r[i], r[k + 1] = r[k + 1], r[i]
        top = h[k + 1]
        inv = pow(top[k], -1, p)
        for i in range(k + 2, n):
            c = h[i][k] * inv % p
            if c:
                row = h[i]
                row[k:] = [(x - c * y) % p for x, y in zip(row[k:], top[k:])]
                for r in h:
                    r[k + 1] = (r[k + 1] + c * r[i]) % p
    return IntMatrix(n, n, h)


def integer_newton_eigenproduct_poly(P, j):
    """The composed power of degree (2g)^j that eigenproduct_poly built
    before exponent shapes: Newton's integer recurrence on the j-th powers
    of P's power sums, term by term, the sign taken in the inner loop."""
    if j == 0:
        return (1, -1)
    D = P.degree ** j
    s = [pow(tk, j) for tk in P.power_sums(D)]
    E = [1]
    for k in range(1, D + 1):
        acc = 0
        for i in range(1, k + 1):
            acc += (-1) ** (i - 1) * E[k - i] * s[i - 1]
        e, rem = divmod(acc, k)
        if rem:
            raise ArithmeticError("composed power polynomial not integral")
        E.append(e)
    return tuple((-1) ** k * e for k, e in enumerate(E))


def float_root_tuple_count(coeffs, j, target):
    """Ordered j-tuples of the complex roots of coeffs (leading-first,
    with multiplicity) whose product is within 1e-9 of target, relatively:
    a floating-point count over every tuple, roots by sympy's nroots."""
    roots = [complex(z) for z in sympy.Poly(coeffs, sympy.Symbol("x"))
             .nroots(n=30)]
    return sum(1 for t in product(roots, repeat=j)
               if abs(_prod(t) - target) <= 1e-9 * abs(target))


def canonical_orders(ell, D):
    """canonicalize_with_maps' classification of the Smith form D = U A V
    before SmithForm: (None, i) for the free rows i past the rank, then
    (v_l(d_i), i) for the rows of positive valuation, by decreasing
    valuation, ties by row."""
    from devissage.exactlin import valuation
    r = sum(1 for i in range(min(D.rows, D.cols)) if D.entry(i, i))
    torsion = []
    for i in range(r):
        v = valuation(D.entry(i, i), ell)
        if v > 0:
            torsion.append((v, i))
    torsion.sort(key=lambda t: (-t[0], t[1]))
    return [(None, i) for i in range(r, D.rows)] + torsion


def smith_level_orders(ell, s, D):
    """SmithKernel.level_orders on the Smith form D, as level_kernel read it
    before SmithForm: (min(v_l(d_i), s), i), or (s, i) where d_i = 0, for
    every row i where that is positive, by decreasing value, ties by row."""
    from devissage.exactlin import valuation
    diagonal = tuple(D.entry(i, i) if i < min(D.rows, D.cols) else 0
                     for i in range(D.rows))
    out = []
    for i, d in enumerate(diagonal):
        v = s if d == 0 else min(valuation(d, ell), s)
        if v:
            out.append((v, i))
    out.sort(key=lambda t: -t[0])
    return out


def dense_smith_with_inverses(A):
    """smith_with_inverses as it was before it followed the nonzeros: every
    pivot scan covers the whole active block, every row and column
    operation the whole row or column of a, U, V and U^-1, and every pivot
    runs the divisibility scan.  Same pivot rule, so the same (U, D, V,
    U^-1)."""
    from devissage.exactlin import IntMatrix
    m, n = A.rows, A.cols
    a = [list(r) for r in A.data]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    Ui = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_swap(i, j):
        if i == j:
            return
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]
        for r in Ui:
            r[i], r[j] = r[j], r[i]

    def row_add(i, j, c):
        if c == 0:
            return
        for k in range(n):
            a[i][k] += c * a[j][k]
        for k in range(m):
            U[i][k] += c * U[j][k]
        for r in Ui:
            r[j] -= c * r[i]

    def col_swap(i, j):
        if i == j:
            return
        for r in a + V:
            r[i], r[j] = r[j], r[i]

    def col_add(j, i, c):
        if c == 0:
            return
        for r in a + V:
            r[j] += c * r[i]

    t = 0
    while t < m and t < n:
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        if best is None:
            break
        row_swap(t, best[1])
        col_swap(t, best[2])
        while True:
            dirty = False
            for i in range(m):
                if i != t and a[i][t] != 0:
                    row_add(i, t, -(a[i][t] // a[t][t]))
                    dirty = dirty or a[i][t] != 0
            if dirty:
                low = min((abs(a[i][t]), i) for i in range(m)
                          if i != t and a[i][t] != 0)
                row_swap(t, low[1])
                continue
            dirty = False
            for j in range(n):
                if j != t and a[t][j] != 0:
                    col_add(j, t, -(a[t][j] // a[t][t]))
                    dirty = dirty or a[t][j] != 0
            if dirty:
                low = min((abs(a[t][j]), j) for j in range(n)
                          if j != t and a[t][j] != 0)
                col_swap(t, low[1])
                continue
            if any(a[i][t] for i in range(m) if i != t):
                continue
            d = a[t][t]
            stuck = next((i for i in range(t + 1, m)
                          if any(a[i][j] % d for j in range(t + 1, n))), None)
            if stuck is None:
                break
            row_add(t, stuck, 1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            U[t] = [-x for x in U[t]]
            for r in Ui:
                r[t] = -r[t]
        t += 1
    return tuple(IntMatrix(len(M), cols, M)
                 for M, cols in ((U, m), (a, n), (V, n), (Ui, m)))


def validate_edge_tree(graph, tree):
    """A spanning tree given as edges, either orientation accepted, checked
    and sorted into graph.edges order: the parser of trees as edge tuples
    before build_psi took tree masks."""
    edges = []
    eset = set(graph.edges)
    for e in tree:
        pair = tuple(e)
        cand = pair if pair in eset else (pair[1], pair[0])
        if cand not in eset:
            raise ValueError(f"edge {pair!r} is not an edge of the graph")
        edges.append(cand)
    if len(set(edges)) != len(edges):
        raise ValueError("repeated edge in the tree")
    verts = graph.vertex_ids
    if len(edges) != len(verts) - 1:
        raise ValueError(
            f"{len(edges)} edges cannot span {len(verts)} vertices")
    # |V| - 1 edges that do not connect the vertices must close a cycle,
    # which _leaf_order, run next by both callers, rejects
    return tuple(sorted(edges))


def tree_solve(graph, tree, values, modulus=None):
    """Unique edge values on a spanning tree with prescribed vertex sums:
    the per-tree route that _orbit_section replaced.

    values maps vertex ids to the required sum of incident edge values;
    missing vertices default to 0.  Each edge joins one component and one
    node, so summing the defining equations over either vertex class counts
    every edge once: the two class totals must agree (mod the modulus when
    one is given) or no solution exists.  Leaf elimination is subtraction
    only, hence exact over Z and over Z/m alike.
    """
    from devissage.dualgraph import _check_balance, _check_root, _leaf_order
    reduce = (lambda x: x % modulus) if modulus else (lambda x: x)
    edges = validate_edge_tree(graph, tree)
    steps, roots = _leaf_order(graph, edges)
    verts = graph.vertex_ids
    for k in values:
        if str(k) not in verts:
            raise ValueError(f"value attached to unknown vertex {k!r}")
    residual = {v: values.get(v, 0) for v in verts}
    _check_balance(reduce(sum(residual[c] for c in graph.component_ids)
                          - sum(residual[n] for n in graph.nodes)))
    x = {}
    for v, e, other in steps:
        x[e] = residual[v]
        residual[other] -= x[e]
    # exactly one vertex is never peeled; balance forces its residual to 0
    for v in roots:
        _check_root(v, reduce(residual[v]))
    return {e: reduce(val) for e, val in x.items()}


def per_column_orbit_section(lattice, tree_orbit):
    """_orbit_section as it was before one leaf order per tree: the orbit
    validated and sorted, then tree_solve for every (difference basis
    column, tree) pair, each call validating its tree again, and each
    column placed by var_names.index.  Returns (trees, Psi)."""
    from devissage.dualgraph import difference_basis
    from devissage.exactlin import IntMatrix
    graph, config = lattice.graph, lattice.config
    normalized = [validate_edge_tree(graph, t) for t in tree_orbit]
    if len(set(normalized)) != len(normalized):
        raise ValueError("repeated tree in the orbit")
    if len(edge_tuple_orbit_positions(graph, normalized, ValueError(
            "orbit is not closed under the action"))) != 1:
        raise ValueError("the given trees split into several orbits")
    trees = tuple(sorted(normalized))
    m = len(trees)
    B = difference_basis(len(config.ids))
    cols = []
    for j in range(B.cols):
        alpha = {d: B.entry(i, j) for i, d in enumerate(config.ids)}
        a = {c: sum(alpha[d] for d in config.free_on(c))
             for c in graph.component_ids}
        for n in graph.nodes:
            anchored = config.anchored_at(n)
            a[n] = -alpha[anchored] if anchored is not None else 0
        solutions = [tree_solve(graph, t, a) for t in trees]
        col = [0] * len(lattice.var_names)
        for d, value in alpha.items():
            col[lattice.var_names.index(("alpha", d))] = m * value
        for i, name in enumerate(lattice.var_names):
            if name[0] != "y":
                continue
            _, comp, pt = name
            if pt in graph.nodes:
                col[i] = sum(sol.get((comp, pt), 0) for sol in solutions)
            else:
                col[i] = -m * alpha[pt]
        cols.append(col)
    Psi = (IntMatrix.from_rows([list(r) for r in zip(*cols)], len(cols))
           if cols else IntMatrix.zeros(len(lattice.var_names), 0))
    return trees, Psi


def divisor_action(entries, perm):
    """Induced divisor permutation under one graph generator.

    entries are (id, (kind, target)) pairs.  Node anchored divisors follow
    their node.  Free divisors on a component map to the free divisors of
    the image component matched by sorted position.
    """
    by_node = {t: d for d, (k, t) in entries if k == "node"}
    free = {}
    for d, (k, t) in entries:
        if k == "free":
            free.setdefault(t, []).append(d)
    for lst in free.values():
        lst.sort()
    out = {}
    for did, (kind, target) in entries:
        image = perm.get(target, target)
        if kind == "node":
            if image not in by_node:
                raise ValueError(
                    f"divisor {did!r}: no divisor is anchored at the image "
                    f"node {image!r}")
            out[did] = by_node[image]
        else:
            src, dst = free[target], free.get(image, [])
            if len(src) != len(dst):
                raise ValueError(
                    f"free divisor counts differ between component "
                    f"{target!r} and its image {image!r}")
            out[did] = dst[src.index(did)]
    return out


def perm_matrix(order, image):
    """Permutation matrix with a 1 at (position of image(x), position of x).

    order lists the coordinates; image maps each of them to a member of
    order, bijectively.
    """
    from devissage.exactlin import IntMatrix
    index = {x: i for i, x in enumerate(order)}
    rows = [[0] * len(order) for _ in order]
    for j, x in enumerate(order):
        rows[index[image(x)]][j] = 1
    return IntMatrix.from_rows(rows, len(order))


def tensor_maps_frob_power(X, n):
    """The n-fold box power of the Frobenius object X as n - 1 box products
    of two objects, each the tensor_maps product of their matrices as maps
    on the dual modules, with q-powers adding; the 0th power is the unit."""
    from devissage.exactlin import IntMatrix, LMap, tensor_maps
    from devissage.lprimary import FrobObject, box, box_unit
    if n == 0:
        return FrobObject(box_unit(X.ell), IntMatrix.identity(1), X.q)
    out = X
    for _ in range(n - 1):
        big = tensor_maps(LMap(out.rep_module, out.rep_module, out.matrix),
                          LMap(X.rep_module, X.rep_module, X.matrix))
        out = FrobObject(box(out.carrier, X.carrier), big.matrix, X.q,
                         out.qpow + X.qpow)
    return out


def randint_random_cogroup(rng, ell):
    """random_cogroup with its corank, factor count and exponents drawn by
    rng.randint(0, 2), rng.randint(0, 2) and rng.randint(1, 3)."""
    from devissage.exactlin import CoLGroup, LModule
    c = rng.randint(0, 2)
    k = rng.randint(0, 2)
    exps = sorted((rng.randint(1, 3) for _ in range(k)), reverse=True)
    return CoLGroup(LModule(ell, c, tuple(exps)))


def tensor_power_with_index(M, n):
    """n-fold tensor power with multi-index bookkeeping.

    Returns (module, tuples) where tuples[p] is the n-tuple of generator
    indices at canonical position p, built by n tensor_with_index products
    from Zl.  The 0-th power is Zl with the empty tuple.
    """
    from devissage.exactlin import LModule, tensor_with_index
    if n < 0:
        raise ValueError("negative tensor power")
    mod = LModule(M.ell, 1)
    tuples = [()]
    for _ in range(n):
        nxt, pairs = tensor_with_index(mod, M)
        tuples = [tuples[i] + (j,) for i, j in pairs]
        mod = nxt
    return mod, tuples


def unit_box_power(A, n):
    """A^box n as n box products started from the unit Ql/Zl."""
    from devissage.exactlin import CoLGroup, LModule
    from devissage.lprimary import box
    if n < 0:
        raise ValueError("negative box power")
    out = CoLGroup(LModule(A.ell, 1))
    for _ in range(n):
        out = box(out, A)
    return out


def randint_torsbis_f_st(A, s, t, n, rng):
    """torsbis_maps(A, s, t, n, rng).f_st for n >= 1, each lift coordinate
    perturbed by l^s * rng.randint(0, l - 1) and the l-powers taken per
    entry."""
    from math import prod

    from devissage.exactlin import IntMatrix, LMap, LModule
    ell, c = A.ell, A.corank
    dom, didx = tensor_power_with_index(A.level(s), n)
    cod = LModule(ell, 0, (t,) * len(didx))
    cols = []
    for tup in didx:
        legs = []
        for i in tup:
            lift = [0] * c
            lift[i] = 1
            for j in range(c):
                lift[j] += ell ** s * rng.randint(0, ell - 1)
            legs.append(lift)
        cols.append([prod(leg[j] for leg, j in zip(legs, ctup)) * ell ** (t - s)
                     % ell ** t for ctup in didx])
    return LMap(dom, cod, IntMatrix.from_rows(cols, len(didx)).transpose())


def sorted_filtered_level(G, s):
    """The l^s-torsion of the discrete group G: Z/l^s per divisible copy and
    Z/l^min(e, s) per cyclic factor, zero exponents dropped, then sorted."""
    from devissage.exactlin import LModule
    exps = [s] * G.corank + [min(e, s) for e in G.finite_exponents]
    return LModule(G.ell, 0,
                   tuple(sorted((e for e in exps if e > 0), reverse=True)))


def identity_kernel_homology_at(incoming, outgoing, carrier):
    """ker(outgoing) / im(incoming), None standing for a zero map: the
    kernel is the identity on the carrier where outgoing is None, and
    incoming's preimage in the kernel presents the image."""
    from devissage.exactlin import LMap, cokernel, kernel, preimage
    k = LMap.identity_on(carrier) if outgoing is None else kernel(outgoing)
    if incoming is None:
        return k.domain
    mat = preimage(k, incoming.matrix)
    if mat is None:
        raise ValueError("map does not factor through the kernel")
    return cokernel(LMap(incoming.domain, k.domain, mat)).codomain
