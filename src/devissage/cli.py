"""Batch front door: parse instance files, run check suites, emit reports.

The run command reads a JSON instance description, assembles the graph,
divisor and jacobian data, executes the selected check suites, and prints
one report.  Exit codes: 0 when every selected check passes, 2 when at
least one check fails, 3 when the tree cap or the exact-kernel cap is hit,
4 when the input or a flag value fails parsing or validation.
--precision is checked against --level and written into the report's
config; nothing else reads it.  A proof step found false
(VerificationFailed) fails its suite with one "internal verification"
check, and the other suites still run.

JSON reports are deterministic for a fixed (input, config, seed) triple:
keys are sorted and timings are kept out of the JSON rendering.  The text
rendering carries per-suite timings and is not byte-stable.
"""

import json
import os
import random
import time
from dataclasses import dataclass
from math import gcd, prod
from typing import Optional, Tuple

import click

from . import sequences
from .dualgraph import (
    DEFAULT_TREE_CAP,
    DivisorConfig,
    DualGraph,
    bezout_combine,
    betti,
    build_psi,
    default_divisors,
    laplacian,
    n_x,
)
from .errors import (
    EnumerationCapExceeded,
    InvalidInstance,
    ParseError,
    VerificationFailed,
)
from .exactlin import (
    PRIME_BOUND,
    CoLGroup,
    IntMatrix,
    LModule,
    SmithForm,
    is_prime,
)
from .lprimary import (
    CoMap,
    box,
    box_unit,
    co_direct_sum,
    left_exactness_probe,
    random_cogroup,
    tor_box,
    tors_level_check,
    torsbis_maps,
)
from .procyclic import (
    WEIL_CATALOG,
    CharPoly,
    clear_memo,
    duality_crosscheck,
    vanishing_probe,
    weil_weight_check,
)

SCHEMA = "devissage/1"
REPORT_SCHEMA = "devissage-report/1"


# ---------------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters.

    ell=None defers to the instance file; a value here overrides it.
    suites may contain "all", which expands to every suite in declaration
    order.
    """

    input_path: str
    suites: Tuple[str, ...] = ("all",)
    ell: Optional[int] = None
    precision: int = 8
    max_level: int = 4
    tree_cap: int = DEFAULT_TREE_CAP
    seed: int = 0

    def __post_init__(self):
        # an ell at or above PRIME_BOUND is rejected by build_instance
        if (self.ell is not None and self.ell < PRIME_BOUND
                and not is_prime(self.ell)):
            raise InvalidInstance(f"ell must be prime, got {self.ell}")
        if not 1 <= self.max_level <= self.precision:
            raise InvalidInstance(
                f"need precision >= max level >= 1, got precision "
                f"{self.precision} and level {self.max_level}")
        if self.tree_cap < 1:
            raise InvalidInstance("tree cap must be positive")
        names = tuple(self.suites) or ("all",)
        for name in names:
            if name != "all" and name not in SUITE_NAMES:
                raise InvalidInstance(
                    f"unknown suite {name!r}; choose from "
                    f"{', '.join(SUITE_NAMES)} or all")
        object.__setattr__(self, "suites", names)

    @property
    def selected(self) -> Tuple[str, ...]:
        if "all" in self.suites:
            return SUITE_NAMES
        return tuple(dict.fromkeys(self.suites))


# ---------------------------------------------------------------------------
# instance file parsing


def load_raw(path: str) -> dict:
    """Read and schema-check one instance file; ParseError on any defect."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc
    except ValueError as exc:
        # bytes that are not UTF-8, or an integer literal beyond the
        # interpreter's digit limit
        raise ParseError(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top level must be an object")
    if raw.get("schema") != SCHEMA:
        raise ParseError(
            f"{path}: field 'schema' must be {SCHEMA!r}, got "
            f"{raw.get('schema')!r}")
    return raw


def _req(raw: dict, name: str, kind, default=None):
    """raw[name] checked against kind; default (when given) if absent."""
    if name not in raw:
        if default is None:
            raise ParseError(f"missing field {name!r}")
        return default
    value = raw[name]
    if not isinstance(value, kind):
        raise ParseError(f"field {name!r} has the wrong type")
    return value


def _int(value, where: str) -> int:
    """One integer field of the instance file; ParseError names it.

    Only JSON integers pass: a float, a bool or a string is rejected, never
    truncated or parsed.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    return value


def _perm_from_cycles(cycles, vertex_ids, where: str) -> dict:
    perm = {}
    for cyc in cycles:
        if not isinstance(cyc, list) or not cyc:
            raise ParseError(f"{where}: each cycle must be a nonempty list")
        ids = [str(v) for v in cyc]
        for a, b in zip(ids, ids[1:] + ids[:1]):
            if a not in vertex_ids:
                raise ParseError(f"{where}: unknown vertex id {a!r}")
            if a in perm:
                raise ParseError(f"{where}: vertex {a!r} appears twice")
            perm[a] = b
    return perm


def _parse_divisors(raw_divs):
    entries = []
    for i, d in enumerate(raw_divs):
        spot = f"divisors[{i}]"
        if not isinstance(d, dict) or "id" not in d or "at" not in d:
            raise ParseError(f"{spot}: needs 'id' and 'at'")
        at = d["at"]
        if not isinstance(at, dict) or len(at) != 1:
            raise ParseError(
                f"{spot}: 'at' must hold exactly one of 'node' or "
                f"'component'")
        (key, target), = at.items()
        if key == "node":
            entries.append((str(d["id"]), ("node", str(target))))
        elif key == "component":
            entries.append((str(d["id"]), ("free", str(target))))
        else:
            raise ParseError(f"{spot}: 'at' key must be 'node' or 'component'")
    return entries


def build_instance(raw: dict, config: RunConfig):
    """Assemble a SingularityInstance from decoded JSON.

    Every library-level validation failure is rewrapped as ParseError so
    the caller sees a single error class with a field diagnostic.
    """
    comps = []
    for i, entry in enumerate(_req(raw, "components", list)):
        if not isinstance(entry, dict) or "id" not in entry:
            raise ParseError(f"components[{i}]: needs an 'id'")
        comps.append((str(entry["id"]),
                      _int(entry.get("genus", 0), f"components[{i}].genus")))
    nodes = [str(v) for v in _req(raw, "nodes", list)]
    edges = []
    for i, e in enumerate(_req(raw, "edges", list)):
        if not isinstance(e, list) or len(e) != 2:
            raise ParseError(f"edges[{i}]: must be a pair of vertex ids")
        edges.append((str(e[0]), str(e[1])))

    vertex_ids = {c for c, _ in comps} | set(nodes)
    action = []
    for i, gen in enumerate(_req(raw, "action", list, [])):
        if not isinstance(gen, list):
            raise ParseError(f"action[{i}]: must be a list of cycles")
        action.append(_perm_from_cycles(gen, vertex_ids, f"action[{i}]"))

    try:
        graph = DualGraph(comps, nodes, edges, action)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"graph: {exc}") from exc

    if "divisors" in raw:
        entries = _parse_divisors(_req(raw, "divisors", list))
        try:
            divisors = DivisorConfig(graph, entries)
        except ValueError as exc:
            raise ParseError(f"divisors: {exc}") from exc
    else:
        divisors = default_divisors(graph)

    jacobians = []
    for i, entry in enumerate(_req(raw, "jacobians", list, [])):
        spot = f"jacobians[{i}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{spot}: must be an object")
        for name in ("orbit_rep", "charpoly", "q", "f"):
            if name not in entry:
                raise ParseError(f"{spot}: missing {name!r}")
        coeffs = _req(entry, "charpoly", list)
        try:
            poly = CharPoly(
                tuple(_int(c, f"{spot}.charpoly[{k}]")
                      for k, c in enumerate(coeffs)),
                _int(entry["q"], f"{spot}.q"))
        except InvalidInstance as exc:
            raise ParseError(f"{spot}: {exc}") from exc
        jacobians.append((str(entry["orbit_rep"]), poly,
                          _int(entry["f"], f"{spot}.f")))

    ell = config.ell if config.ell is not None else raw.get("ell")
    if ell is None:
        raise ParseError("no prime given: set 'ell' in the file or pass --ell")
    if _int(ell, "ell") >= PRIME_BOUND:
        raise ParseError(f"ell = {ell} is not below {PRIME_BOUND}, the bound "
                         f"of the deterministic primality test")
    if "q" not in raw:
        raise ParseError("missing field 'q'")
    try:
        return sequences.SingularityInstance(
            divisors, jacobians, ell, _int(raw["q"], "q"),
            max_level=config.max_level, tree_cap=config.tree_cap)
    except (InvalidInstance, TypeError, ValueError) as exc:
        raise ParseError(f"instance: {exc}") from exc


def instance_summary(inst) -> dict:
    g = inst.graph
    return {
        "components": [{"genus": genus, "id": cid}
                       for cid, genus in g.components],
        "nodes": list(g.nodes),
        "edges": [list(e) for e in g.edges],
        "generators": len(g.action),
        "divisors": list(inst.divisors.ids),
        "jacobian_orbits": [{"orbit_rep": rep, "degree": poly.degree, "f": f}
                            for rep, poly, f in inst.jacobians],
        "ell": inst.ell,
        "q": inst.q,
        "betti": betti(g),
        "n_x": n_x(g),
        "finite_field_mode": inst.is_finite_field_mode,
    }


# ---------------------------------------------------------------------------
# check suites


def _check(name, ok, sequence=None, structure=None, modeled=False) -> dict:
    entry = {"name": name, "verdict": "PASS" if ok else "FAIL"}
    if sequence is not None:
        entry["sequence"] = sequence
    if structure is not None:
        entry["structure"] = structure
    if modeled:
        entry["modeled"] = True
    return entry


def _suite(checks) -> dict:
    ok = all(c["verdict"] == "PASS" for c in checks)
    return {"checks": list(checks), "verdict": "PASS" if ok else "FAIL"}


def _run_boxcalc(inst, config) -> dict:
    ell = inst.ell
    rng = random.Random(config.seed)
    unit = box_unit(ell)

    unit_ok = 0
    for _ in range(100):
        A = random_cogroup(rng, ell)
        unit_ok += box(A, unit) == A and box(unit, A) == A
    law_ok = 0
    for _ in range(100):
        A = random_cogroup(rng, ell)
        B = random_cogroup(rng, ell)
        C = random_cogroup(rng, ell)
        BC = box(B, C)
        assoc = box(box(A, B), C) == box(A, BC)
        dist = box(co_direct_sum(A, B), C) == co_direct_sum(box(A, C), BC)
        law_ok += assoc and dist

    tor_ok = True
    for p in (2, 3, 5):
        cyclic = {n: CoLGroup(LModule(p, 0, (n,))) for n in range(1, 6)}
        for n in range(1, 6):
            for m in range(1, 6):
                got = tor_box(cyclic[n], cyclic[m])
                tor_ok &= got == cyclic[min(n, m)]

    # multiplication by ell is onto the unit but dies after box with Z/ell
    fin = CoLGroup(LModule(ell, 0, (1,)))
    iota = CoMap.from_dual_matrix(fin, unit, [[1]])
    pi = CoMap.multiplication(unit, ell)
    plain, probe = left_exactness_probe(iota, pi, unit, fin)
    witness = (plain.surjective and probe.left_exact
               and not probe.surjective and probe.obstruction == fin
               and box(fin, unit) == fin)

    return _suite([
        _check("unit law on random discrete groups", unit_ok == 100,
               structure=f"{unit_ok}/100"),
        _check("associativity and distributivity on random triples",
               law_ok == 100, structure=f"{law_ok}/100"),
        _check("tor of cyclic pairs is cyclic of the minimum exponent",
               tor_ok, structure="exponents up to 5 at primes 2, 3, 5"),
        _check("multiplication by ell is onto the unit but zero after "
               "box with Z/ell", witness,
               structure=f"obstruction {probe.obstruction}"),
    ])


def _run_torsionlevels(inst, config) -> dict:
    rng = random.Random(config.seed)
    tors_hits = tors_total = 0
    comm_hits = comm_total = 0
    for p in (2, 3):
        for corank in (1, 2):
            A = CoLGroup(LModule(p, corank))
            for n in (1, 2, 3):
                for s in (1, 2, 3):
                    tors_total += 1
                    tors_hits += tors_level_check(A, n, s)
                for s in (1, 2):
                    for t in range(s + 1, 4):
                        comm_total += 1
                        comm_hits += torsbis_maps(A, s, t, n, rng=rng).commutes
    return _suite([
        _check("box power torsion matches the torsion tensor power",
               tors_hits == tors_total,
               structure=f"{tors_hits}/{tors_total} instances"),
        _check("level raising squares commute",
               comm_hits == comm_total,
               structure=f"{comm_hits}/{comm_total} diagrams"),
    ])


def _run_vanishing(inst, config) -> dict:
    # CharPoly is a frozen dataclass: equal exactly when (coefficients, q) are
    polys = list(dict.fromkeys(
        [poly for _, poly, _ in inst.jacobians] + list(WEIL_CATALOG)))

    weil_ok = all(weil_weight_check(P) for P in polys)
    rule_ok = duality_ok = True
    probes = minus_hits = plus_hits = 0
    for P in polys:
        for p in (2, 3, 5, 7):
            if P.q % p == 0:
                continue
            for j in range(0, 5):
                for r in range(-3, 4):
                    corank = vanishing_probe(P, p, j, r)
                    probes += 1
                    rule_ok &= (corank > 0) == (j == -2 * r)
                    minus_hits += j == -2 * r
                    plus_hits += j == 2 * r
                    duality_ok &= duality_crosscheck(P, p, j, r).levels_agree
    return _suite([
        _check("weight bounds hold for every fixture polynomial", weil_ok,
               structure=f"{len(polys)} fixtures"),
        _check("torsion h1 is nontrivial exactly on the boundary twist "
               "j = -2r", rule_ok, structure=f"{probes} probes"),
        _check("both boundary sign variants were exercised",
               minus_hits > 0 and plus_hits > 0,
               structure=f"j=-2r hit {minus_hits}, j=+2r hit {plus_hits}"),
        _check("duality comparison agrees level by level", duality_ok,
               structure=f"{probes} comparisons"),
    ])


def _laplacian_cofactor(graph) -> int:
    # |product of the Smith invariant factors| of the reduced Laplacian:
    # independent of the Bareiss determinant that spanning_trees compares
    # its tree count with
    lap = laplacian(graph)
    keep = range(lap.rows - 1)
    return abs(prod(SmithForm.of(lap.take_rows(keep).take_cols(keep)).diagonal))


def _rational_fixed_rank(lattice) -> int:
    # Bareiss rank over Q, independent of the Smith route behind fixed_rank
    c = lattice.rank
    if c == 0 or not lattice.action_matrices:
        return c
    rows = []
    for M in lattice.action_matrices:
        for k in range(c):
            rows.append([M.entry(k, j) - (1 if j == k else 0)
                         for j in range(c)])
    return c - IntMatrix.from_rows(rows, c).rank()


def _run_graph(inst, config) -> dict:
    # the orbits count and cap the trees before the lattice's Smith forms
    sizes = sorted(len(o) for o in inst.orbits)
    g, lattice = inst.graph, inst.lattice
    n_trees = sum(sizes)
    fixed = inst.rho
    return _suite([
        _check("first betti number agrees with the cycle lattice rank",
               betti(g) == lattice.rank, structure=f"betti={betti(g)}"),
        _check("spanning tree enumeration matches the matrix tree count",
               n_trees == _laplacian_cofactor(g),
               structure=f"{n_trees} trees"),
        _check("orbit sizes partition the tree set",
               len({t for o in inst.orbits for t in o}) == n_trees,
               structure=f"m={inst.m}, orbit sizes {sizes}"),
        _check("fixed cycle rank agrees between integer and rational "
               "routes", fixed == _rational_fixed_rank(lattice),
               structure=f"rho={fixed}"),
    ])


def _run_splitting(inst, config) -> dict:
    # smallest deterministic prefix of orbits whose sizes reach the gcd
    chosen = []
    running = 0
    for orbit in inst.orbits:
        chosen.append(orbit)
        running = gcd(running, len(orbit))
        if running == inst.m:
            break

    # each construction raises VerificationFailed on a false step: returning proves it
    checks = []
    for s in range(1, inst.max_level + 1):
        xi = inst.xi(s)
        checks.append(_check(
            f"residue sequence exact at level {s}", True,
            sequence="spl2", structure=str(xi.module)))
        psis = [build_psi(xi, o) for o in chosen]
        combined = bezout_combine(psis, inst.m)
        checks.append(_check(
            f"combined section multiplies by the orbit gcd at level {s}",
            True, sequence="spl2",
            structure=f"m={combined.m}, orbits used {len(psis)}"))
        if inst.m % inst.ell != 0:
            # bezout_combine raised unless phi Psi = m B mod l^s, and m is a
            # unit mod l^s here, so m^-1 Psi is a section of phi
            checks.append(_check(
                f"prime-to-ell gcd splits the sequence at level {s}", True,
                sequence="spl2"))
    return _suite(checks)


def _run_devissage(inst, config) -> dict:
    checks = []
    for s in range(1, inst.max_level + 1):
        outer, inner = sequences.devissage(inst, s)
        st = inner.structure
        checks.append(_check(
            f"kernel object structure at level {s}", inner.ok,
            sequence="upsilon",
            structure=(f"observed {st['observed']}, predicted "
                       f"{st['predicted']}, defect {st['defect']}"),
            modeled=True))
        lam = sequences.lambda_structure(inst, s)
        checks.append(_check(
            f"boundary cokernel structure at level {s}",
            lam.ok,
            structure=f"{lam.structure} with twist {lam.twist}"))
        checks.append(_check(
            f"outer assembly exact at level {s}", outer.ok,
            sequence="dev1", modeled=True))
        checks.append(_check(
            f"inner assembly exact at level {s}", inner.ok,
            sequence="dev2", modeled=True))
    return _suite(checks)


def _run_bhn(inst, config) -> dict:
    rep = sequences.bhn_finite_field_report(inst)
    checks = [_check(name, ok, sequence="bhnfin", modeled=True)
              for name, ok in rep.checks]
    for rec in rep.levels:
        checks.append(_check(
            f"finite kernel bounded at level {rec.level}",
            rec.f_killed_by_m and rec.equivariance_ok
            and rec.level_routes_agree,
            sequence="bhnfin", structure=f"F = {rec.f_structure}"))
    suite = _suite(checks)
    suite["rho"] = rep.rho
    suite["m"] = rep.m_value
    suite["h1_corank"] = rep.h1_corank
    suite["display"] = [{"label": t.label, "status": t.status,
                         "structure": t.structure} for t in rep.display]
    return suite


_RUNNERS = {
    "boxcalc": _run_boxcalc,
    "torsionlevels": _run_torsionlevels,
    "vanishing": _run_vanishing,
    "graph": _run_graph,
    "splitting": _run_splitting,
    "devissage": _run_devissage,
    "bhn": _run_bhn,
}
SUITE_NAMES = tuple(_RUNNERS)


# ---------------------------------------------------------------------------
# run + rendering


def _error_report(config: RunConfig, kind: str, message: str) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "input": config.input_path,
        "error": {"kind": kind, "message": message},
        "verdict": "ERROR",
    }


def run(config: RunConfig):
    """Execute the selected suites.  Returns (exit code, report dict)."""
    clear_memo()
    try:
        raw = load_raw(config.input_path)
        inst = build_instance(raw, config)
    except ParseError as exc:
        return 4, _error_report(config, "parse", str(exc))

    suites = {}
    timings = {}
    for name in config.selected:
        started = time.perf_counter()
        try:
            suites[name] = _RUNNERS[name](inst, config)
        except EnumerationCapExceeded as exc:
            report = _error_report(config, "cap", f"{name}: {exc}")
            report["suites"] = suites
            return 3, report
        except InvalidInstance as exc:
            report = _error_report(config, "invalid", f"{name}: {exc}")
            report["suites"] = suites
            return 4, report
        except VerificationFailed as exc:
            suites[name] = _suite([_check("internal verification", False,
                                          structure=str(exc))])
        timings[name] = round(time.perf_counter() - started, 3)

    ok = all(s["verdict"] == "PASS" for s in suites.values())
    modeled = any(c.get("modeled") for s in suites.values()
                  for c in s["checks"])
    report = {
        "schema": REPORT_SCHEMA,
        "input": config.input_path,
        "config": {
            "ell": inst.ell,
            "precision": config.precision,
            "max_level": config.max_level,
            "seed": config.seed,
            "suites": list(config.selected),
            "tree_cap": config.tree_cap,
        },
        "instance": instance_summary(inst),
        "suites": suites,
        "modeled_terms": modeled,
        "verdict": "PASS" if ok else "FAIL",
        "timings": timings,
    }
    return (0 if ok else 2), report


def render_json(report: dict) -> str:
    """Deterministic rendering: sorted keys, timings stripped."""
    clean = {k: v for k, v in report.items() if k != "timings"}
    return json.dumps(clean, sort_keys=True, indent=2) + "\n"


def render_text(report: dict) -> str:
    lines = ["devissage report", f"input: {report['input']}"]
    if "error" in report:
        err = report["error"]
        lines.append(f"error ({err['kind']}): {err['message']}")
    summary = report.get("instance")
    if summary:
        lines.append(
            f"instance: {len(summary['components'])} components, "
            f"{len(summary['nodes'])} nodes, betti {summary['betti']}, "
            f"ell {summary['ell']}, q {summary['q']}")
    timings = report.get("timings", {})
    for name, suite in report.get("suites", {}).items():
        stamp = f" ({timings[name]:.3f}s)" if name in timings else ""
        lines.append(f"[{name}] {suite['verdict']}{stamp}")
        if "rho" in suite:
            lines.append(f"  rho = {suite['rho']}, m = {suite['m']}, "
                         f"h1 corank = {suite['h1_corank']}")
        for c in suite["checks"]:
            extra = f"  :: {c['structure']}" if "structure" in c else ""
            if c.get("modeled"):
                extra += "  [modeled terms]"
            lines.append(f"  {c['verdict']:4} {c['name']}{extra}")
        if "display" in suite:
            for term in suite["display"]:
                lines.append(f"    {term['status']:8} {term['label']} "
                             f"= {term['structure']}")
    lines.append(f"verdict: {report['verdict']}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# sequence explanations


# the note of a MODELED middle term, and of one a structure check measures
_SPLIT = "middle term represented as a split extension of the ends"
_SPLIT_DEFECT = (_SPLIT + "; the structure check reports the defect against "
                 "the predicted rank")

_SEQUENCE_NOTES = {
    "spl1": (
        "0 -> (+)_v Ind(J_v[l^oo](r-2)) -> Br(r-1) -> Xi(r-2) -> 0",
        (("(+)_v Ind(J_v[l^oo](r-2))", "COMPUTED",
          "induced jacobian torsion blocks, one per orbit"),
         ("Br(r-1)", "MODELED", _SPLIT),
         ("Xi(r-2)", "COMPUTED", "kernel assembly from graph and divisors"))),
    "spl2": (
        "0 -> Ql/Zl (x) H1(Gamma) -> Xi -> "
        "Ker((+)_D Ql/Zl -> Ql/Zl) -> 0",
        (("Ql/Zl (x) H1(Gamma)", "COMPUTED", "cycle lattice block"),
         ("Xi", "COMPUTED", "kernel assembly from graph and divisors"),
         ("Ker((+)_D Ql/Zl -> Ql/Zl)", "COMPUTED",
          "zero sum block over the divisor set; a section psi with "
          "phi psi = m(Gamma) is built per tree orbit, so the sequence "
          "splits at every level whenever l does not divide m(Gamma)"))),
    "dev1": (
        "0 -> Upsilon(r-1) -> Br(r-1) -> "
        "Ker((+)_v Ql/Zl(r-2) -> Ql/Zl(r-2)) -> 0",
        (("Upsilon(r-1)", "MODELED", _SPLIT_DEFECT),
         ("Br(r-1)", "MODELED", _SPLIT),
         ("Ker((+)_v Ql/Zl(r-2) -> Ql/Zl(r-2))", "COMPUTED",
          "zero sum block over the divisor set"))),
    "dev2": (
        "0 -> (+)_v Ind(J_v[l^oo](r-2)) -> Upsilon(r-1) -> "
        "Ql/Zl(r-2) (x) H1(Gamma) -> 0",
        (("(+)_v Ind(J_v[l^oo](r-2))", "COMPUTED",
          "induced jacobian torsion blocks, one per orbit"),
         ("Upsilon(r-1)", "MODELED", _SPLIT_DEFECT),
         ("Ql/Zl(r-2) (x) H1(Gamma)", "COMPUTED", "cycle lattice block"))),
    "upsilon": (
        "Upsilon(r-1)[l^s] = (Z/l^s)^(n_X) with n_X = sum of genera + "
        "betti",
        (("Upsilon(r-1)[l^s]", "MODELED", _SPLIT_DEFECT),
         ("(Z/l^s)^(n_X)", "COMPUTED",
          "predicted shape; the report records any defect"))),
    "bhnfin": (
        "0 -> F -> H^1(k, Ql/Zl (x) H1(Gamma)) -> H^3(K, Ql/Zl(2)) -> "
        "(+)_v H^3(K_v, Ql/Zl(2)) -> H^1(k, Ql/Zl) -> 0",
        (("F", "COMPUTED",
          "finite kernel; checked to die under m(Gamma)"),
         ("H^1(k, Ql/Zl (x) H1(Gamma))", "COMPUTED",
          "corank equals the fixed cycle rank rho"),
         ("H^3(K, Ql/Zl(2))", "MODELED", "global cohomology placeholder"),
         ("(+)_v H^3(K_v, Ql/Zl(2))", "MODELED",
          "local cohomology placeholder"),
         ("H^1(k, Ql/Zl)", "COMPUTED", "Ql/Zl for procyclic k"))),
    "cohom1": (
        "(+)_v H^d(F_v, J_v{l}(r-2)) -> H^(d+2)(K, Ql/Zl(r)) -> "
        "H^d(k, Xi(r-2)) -> 0",
        (("(+)_v H^d(F_v, J_v{l}(r-2))", "COMPUTED",
          "induced jacobian blocks at finite level for d <= 1"),
         ("H^(d+2)(K, Ql/Zl(r))", "MODELED",
          "global cohomology placeholder"),
         ("H^d(k, Xi(r-2))", "COMPUTED",
          "kernel assembly cohomology at finite level for d <= 1"))),
    "cohom2": (
        "0 -> F -> H^d(k, Ql/Zl(r-2) (x) H1) -> H^d(k, Xi(r-2)) -> "
        "(+)_v H^(d+2)(K_v, Ql/Zl(r)) -> H^d(k, Ql/Zl(r-2)) -> 0",
        (("F", "COMPUTED", "finite kernel"),
         ("H^d(k, Ql/Zl(r-2) (x) H1)", "COMPUTED", "for d <= 1"),
         ("H^d(k, Xi(r-2))", "COMPUTED", "for d <= 1"),
         ("(+)_v H^(d+2)(K_v, Ql/Zl(r))", "MODELED",
          "local cohomology placeholder"),
         ("H^d(k, Ql/Zl(r-2))", "COMPUTED", "for d <= 1"))),
}


def explain(name: str) -> str:
    """Shape of a named sequence with computed/modeled markers per term."""
    if name not in _SEQUENCE_NOTES:
        known = ", ".join(sorted(_SEQUENCE_NOTES))
        raise ValueError(f"unknown sequence {name!r}; known: {known}")
    shape, terms = _SEQUENCE_NOTES[name]
    lines = [f"{name}: {shape}", ""]
    for term, status, note in terms:
        lines.append(f"  [{status}] {term}")
        lines.append(f"      {note}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command line entry points


class _Main(click.Group):
    """A usage error (a bad flag value, a missing option, an unknown
    command) is bad input, so it exits 4 where click would exit 2."""

    def make_context(self, *args, **kwargs):
        return _usage_exits_4(super().make_context, *args, **kwargs)

    def invoke(self, ctx):
        return _usage_exits_4(super().invoke, ctx)


def _usage_exits_4(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except click.UsageError as exc:
        exc.exit_code = 4
        raise


@click.group(cls=_Main)
def main():
    """Check suites for residue devissage instances."""


@main.command("run")
@click.option("--input", "input_path", required=True,
              type=click.Path(), help="instance file (JSON)")
@click.option("--suite", "suites", default="all", show_default=True,
              help="comma separated suite names, or 'all'")
@click.option("--ell", type=int, default=None,
              help="override the prime from the instance file")
@click.option("--precision", type=int, default=8, show_default=True,
              help="at least --level; recorded in the report's config")
@click.option("--level", "max_level", type=int, default=4, show_default=True,
              help="largest level S probed by the suites")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]),
              default="json", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True,
              help="seed for the randomized property suites")
@click.option("--tree-cap", type=int, default=DEFAULT_TREE_CAP,
              envvar="DEVISSAGE_TREE_CAP",
              help="spanning tree enumeration cap "
                   "(default: DEVISSAGE_TREE_CAP or 1000000)")
@click.option("--out", type=click.Path(), default=None,
              help="write the report to this path instead of stdout")
def run_command(input_path, suites, ell, precision, max_level, fmt, seed,
                tree_cap, out):
    """Run the selected check suites on one instance file."""
    try:
        config = RunConfig(
            input_path=input_path,
            suites=tuple(p.strip() for p in suites.split(",") if p.strip()),
            ell=ell, precision=precision, max_level=max_level,
            tree_cap=tree_cap, seed=seed)
    except InvalidInstance as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(4)
    # open the report file before any suite runs, so a bad path fails fast;
    # opening truncates it, so it must not be the input file
    fh = None
    if out:
        try:
            clash = os.path.samefile(out, input_path)
        except OSError:
            clash = False
        if clash:
            click.echo(f"error: --out {out} is the input file", err=True)
            raise SystemExit(4)
        try:
            fh = open(out, "w", encoding="utf-8")
        except OSError as exc:
            click.echo(f"error: cannot write {out}: {exc.strerror or exc}",
                       err=True)
            raise SystemExit(4)
    code, report = run(config)
    rendered = render_json(report) if fmt == "json" else render_text(report)
    if fh:
        with fh:
            fh.write(rendered)
    else:
        click.echo(rendered, nl=False)
    raise SystemExit(code)


@main.command("explain")
@click.argument("name")
def explain_command(name):
    """Print the shape of a named sequence and its term statuses."""
    try:
        text = explain(name)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(4)
    click.echo(text, nl=False)


if __name__ == "__main__":
    main()
