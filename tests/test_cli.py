"""Front door coverage: parsing, suite execution, exit codes, determinism."""

import hashlib
import importlib.util
import json
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from itertools import combinations
from math import isqrt
from types import SimpleNamespace

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from devissage import cli, dualgraph, exactlin, procyclic, sequences
from devissage.cli import (
    RunConfig,
    SUITE_NAMES,
    build_instance,
    explain,
    load_raw,
    main,
    render_json,
    render_text,
    run,
)
from devissage.errors import (
    DevissageError,
    EnumerationCapExceeded,
    InvalidInstance,
    ParseError,
    VerificationFailed,
)
from devissage.exactlin import PRIME_BOUND, IntMatrix

from generators import random_legal_graph, random_symmetric_graph
from oracles import sympy_laplacian_cofactor, sympy_rank

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
G1_SWAP = os.path.join(FIXTURES, "g1_swap.json")
G2_TREE = os.path.join(FIXTURES, "g2_tree.json")

FAST_SUITES = "boxcalc,torsionlevels,graph,splitting,devissage,bhn"


def write_instance(tmp_path, payload, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _fixture_payload(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        return json.load(fh)


def banana_raw(genus=(0, 0), action=True, **extra):
    if action is True:
        action = [[["a", "b"]]]
    elif action is False:
        action = []
    payload = {
        "schema": "devissage/1",
        "components": [{"id": "u", "genus": genus[0]},
                       {"id": "v", "genus": genus[1]}],
        "nodes": ["a", "b"],
        "edges": [["u", "a"], ["v", "a"], ["u", "b"], ["v", "b"]],
        "action": action,
        "ell": 3,
        "q": 5,
    }
    payload.update(extra)
    return payload


def subdivided_complete_raw(n):
    """K_n (n <= 10) with a node on every edge; the action rotates the n
    components, the nodes follow."""
    pairs = list(combinations(range(n), 2))
    nodes = [f"n{i}{j}" for i, j in pairs]
    edges = [[f"c{k}", f"n{i}{j}"] for i, j in pairs for k in (i, j)]
    perm = {}
    for i, j in pairs:
        a, b = sorted(((i + 1) % n, (j + 1) % n))
        perm[f"n{i}{j}"] = f"n{a}{b}"
    cycles, seen = [[f"c{i}" for i in range(n)]], set()
    for start in nodes:
        cyc, v = [], start
        while v not in seen:
            seen.add(v)
            cyc.append(v)
            v = perm[v]
        if cyc:
            cycles.append(cyc)
    return {
        "schema": "devissage/1",
        "components": [{"id": f"c{i}", "genus": 0} for i in range(n)],
        "nodes": nodes,
        "edges": edges,
        "action": [cycles],
        "ell": 3,
        "q": 5,
    }


def subdivided_k4_raw():
    """K4 with a node on every edge (betti 3)."""
    return subdivided_complete_raw(4)


def banana4_raw():
    """A genus-1 and a genus-0 component joined by four rotated nodes."""
    nodes = [f"n{i}" for i in range(4)]
    return {
        "schema": "devissage/1",
        "components": [{"id": "u", "genus": 1}, {"id": "v", "genus": 0}],
        "nodes": nodes,
        "edges": [[c, n] for n in nodes for c in ("u", "v")],
        "action": [[nodes]],
        "ell": 3,
        "q": 5,
        "jacobians": [{"orbit_rep": "u", "charpoly": [1, -2, 5],
                       "q": 5, "f": 1}],
    }


def dihedral_cycle4_raw():
    """A 4-cycle of components with a node on every edge, acted on by a
    rotation and a reflection (two generators)."""
    comps = [f"c{i}" for i in range(4)]
    nodes = [f"n{i}" for i in range(4)]  # n_i joins c_i and c_(i+1)
    return {
        "schema": "devissage/1",
        "components": [{"id": c, "genus": 0} for c in comps],
        "nodes": nodes,
        "edges": [[comps[k], nodes[i]] for i in range(4)
                  for k in (i, (i + 1) % 4)],
        "action": [[comps, nodes],
                   [["c1", "c3"], ["n0", "n3"], ["n1", "n2"]]],
        "ell": 3,
        "q": 5,
    }


def config_for(path, **kw):
    kw.setdefault("suites", ("graph",))
    return RunConfig(input_path=path, **kw)


class TestRunConfig:

    def test_all_expands_in_declared_order(self):
        cfg = RunConfig(input_path="x", suites=("all",))
        assert cfg.selected == SUITE_NAMES

    def test_duplicates_collapse_but_order_survives(self):
        cfg = RunConfig(input_path="x", suites=("graph", "bhn", "graph"))
        assert cfg.selected == ("graph", "bhn")

    def test_composite_ell_rejected(self):
        with pytest.raises(InvalidInstance):
            RunConfig(input_path="x", ell=6)

    def test_level_above_precision_rejected(self):
        with pytest.raises(InvalidInstance):
            RunConfig(input_path="x", precision=2, max_level=3)

    def test_level_zero_rejected(self):
        with pytest.raises(InvalidInstance):
            RunConfig(input_path="x", max_level=0)

    def test_unknown_suite_rejected(self):
        with pytest.raises(InvalidInstance):
            RunConfig(input_path="x", suites=("graph", "nope"))

    def test_tree_cap_must_be_positive(self):
        with pytest.raises(InvalidInstance):
            RunConfig(input_path="x", tree_cap=0)


class TestParsing:

    def test_shipped_fixtures_parse(self):
        for path, want_betti in ((G1_SWAP, 1), (G2_TREE, 0)):
            inst = build_instance(load_raw(path), config_for(path))
            assert sum(1 for _ in inst.graph.nodes) >= 1
            from devissage.dualgraph import betti
            assert betti(inst.graph) == want_betti

    def test_missing_schema_field(self, tmp_path):
        payload = banana_raw()
        del payload["schema"]
        path = write_instance(tmp_path, payload)
        with pytest.raises(ParseError, match="schema"):
            load_raw(path)

    def test_wrong_schema_version(self, tmp_path):
        path = write_instance(tmp_path, banana_raw(schema="devissage/99"))
        with pytest.raises(ParseError, match="devissage/1"):
            load_raw(path)

    def test_json_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "schema": "devissage/1",\n  "components": [,]\n}')
        with pytest.raises(ParseError, match="line 3"):
            load_raw(str(path))

    def test_degree_three_node_rejected(self, tmp_path):
        payload = {
            "schema": "devissage/1",
            "components": [{"id": "u", "genus": 0}, {"id": "v", "genus": 0},
                           {"id": "w", "genus": 0}],
            "nodes": ["a"],
            "edges": [["u", "a"], ["v", "a"], ["w", "a"]],
            "ell": 3, "q": 5,
        }
        path = write_instance(tmp_path, payload)
        with pytest.raises(ParseError, match="graph"):
            build_instance(load_raw(path), config_for(path))

    def test_action_cycle_with_unknown_vertex(self, tmp_path):
        path = write_instance(tmp_path, banana_raw(action=[[["a", "zz"]]]))
        with pytest.raises(ParseError, match="zz"):
            build_instance(load_raw(path), config_for(path))

    def test_action_vertex_repeated(self, tmp_path):
        # across two cycles, and inside one
        for cycles, v in (([["a", "b"], ["b", "a"]], "b"), ([["a", "a"]], "a"),
                          ([["a", "b", "a"]], "a")):
            path = write_instance(tmp_path, banana_raw(action=[cycles]))
            with pytest.raises(ParseError, match=f"vertex '{v}' appears twice"):
                build_instance(load_raw(path), config_for(path))
        res = CliRunner().invoke(main, ["run", "--input", path])
        assert res.exit_code == 4
        assert "vertex 'a' appears twice" in res.output

    def test_unknown_jacobian_component(self, tmp_path):
        payload = banana_raw(
            genus=(1, 0),
            jacobians=[{"orbit_rep": "zz", "charpoly": [1, -2, 5],
                        "q": 5, "f": 1}])
        path = write_instance(tmp_path, payload)
        with pytest.raises(ParseError, match="instance"):
            build_instance(load_raw(path), config_for(path))

    def test_missing_q(self, tmp_path):
        payload = banana_raw()
        del payload["q"]
        path = write_instance(tmp_path, payload)
        with pytest.raises(ParseError, match="'q'"):
            build_instance(load_raw(path), config_for(path))

    def test_ell_flag_overrides_file_value(self, tmp_path):
        path = write_instance(tmp_path, banana_raw())
        inst = build_instance(load_raw(path), config_for(path, ell=2))
        assert inst.ell == 2

    def test_missing_ell_without_flag(self, tmp_path):
        payload = banana_raw()
        del payload["ell"]
        path = write_instance(tmp_path, payload)
        with pytest.raises(ParseError, match="ell"):
            build_instance(load_raw(path), config_for(path))
        inst = build_instance(load_raw(path), config_for(path, ell=7))
        assert inst.ell == 7

    def test_default_divisors_when_absent(self):
        inst = build_instance(load_raw(G1_SWAP), config_for(G1_SWAP))
        assert len(inst.divisors.ids) == 2


class TestDivisorActionDerivation:

    def test_anchored_divisors_follow_their_node(self, tmp_path):
        payload = banana_raw(divisors=[
            {"id": "p_u", "at": {"component": "u"}},
            {"id": "p_v", "at": {"component": "v"}},
            {"id": "d_a", "at": {"node": "a"}},
            {"id": "d_b", "at": {"node": "b"}},
        ])
        path = write_instance(tmp_path, payload)
        inst = build_instance(load_raw(path), config_for(path))
        perm = inst.divisors.action[0]
        assert perm["d_a"] == "d_b" and perm["d_b"] == "d_a"
        assert perm["p_u"] == "p_u" and perm["p_v"] == "p_v"

    def test_free_divisors_match_by_sorted_position(self, tmp_path):
        # component swap: the free divisor on u must land on the one on v
        payload = banana_raw(
            action=[[["u", "v"]]],
            divisors=[{"id": "p_u", "at": {"component": "u"}},
                      {"id": "p_v", "at": {"component": "v"}}])
        path = write_instance(tmp_path, payload)
        inst = build_instance(load_raw(path), config_for(path))
        perm = inst.divisors.action[0]
        assert perm["p_u"] == "p_v" and perm["p_v"] == "p_u"

    def test_anchored_image_without_divisor_rejected(self, tmp_path):
        payload = banana_raw(divisors=[
            {"id": "p_u", "at": {"component": "u"}},
            {"id": "p_v", "at": {"component": "v"}},
            {"id": "d_a", "at": {"node": "a"}},
        ])
        path = write_instance(tmp_path, payload)
        with pytest.raises(ParseError, match="image"):
            build_instance(load_raw(path), config_for(path))

    def test_free_divisor_counts_differ_rejected(self, tmp_path):
        payload = banana_raw(
            action=[[["u", "v"]]],
            divisors=[{"id": "p_u1", "at": {"component": "u"}},
                      {"id": "p_u2", "at": {"component": "u"}},
                      {"id": "p_v", "at": {"component": "v"}}])
        path = write_instance(tmp_path, payload)
        with pytest.raises(ParseError,
                           match="divisors: free divisor counts differ "
                                 "between component 'u' and its image 'v'"):
            build_instance(load_raw(path), config_for(path))

    def _error(self, tmp_path, payload):
        code, report = run(config_for(write_instance(tmp_path, payload)))
        assert code == 4
        assert report["error"]["kind"] == "parse"
        return report["error"]["message"]

    def test_free_divisor_on_a_node_is_named(self, tmp_path):
        # the swap moves a, which is a node: the anchor is the fault
        payload = banana_raw(divisors=[
            {"id": "p_u", "at": {"component": "u"}},
            {"id": "p_v", "at": {"component": "v"}},
            {"id": "p_a", "at": {"component": "a"}},
        ])
        assert self._error(tmp_path, payload) == (
            "divisors: divisor p_a placed on unknown component 'a'")

    def test_node_divisor_on_a_component_is_named(self, tmp_path):
        payload = banana_raw(action=[[["u", "v"]]], divisors=[
            {"id": "p_u", "at": {"component": "u"}},
            {"id": "p_v", "at": {"component": "v"}},
            {"id": "d_u", "at": {"node": "u"}},
        ])
        assert self._error(tmp_path, payload) == (
            "divisors: divisor d_u anchored at unknown node 'u'")

    def test_at_must_hold_exactly_one_key(self, tmp_path):
        payload = banana_raw(divisors=[
            {"id": "p", "at": {"component": "u", "node": "a"}}])
        path = write_instance(tmp_path, payload)
        with pytest.raises(ParseError, match="exactly one"):
            build_instance(load_raw(path), config_for(path))


class TestRunLibrary:

    def test_fast_suites_pass_on_swap_fixture(self):
        cfg = RunConfig(input_path=G1_SWAP,
                        suites=tuple(FAST_SUITES.split(",")))
        code, report = run(cfg)
        assert code == 0
        assert report["verdict"] == "PASS"
        assert set(report["suites"]) == set(FAST_SUITES.split(","))
        assert report["suites"]["bhn"]["rho"] == 0
        assert report["suites"]["bhn"]["m"] == 2
        assert report["modeled_terms"] is True

    def test_genus_defect_fails_with_exit_two(self, tmp_path):
        payload = banana_raw(
            genus=(1, 0),
            jacobians=[{"orbit_rep": "u", "charpoly": [1, -2, 5],
                        "q": 5, "f": 1}])
        path = write_instance(tmp_path, payload)
        code, report = run(RunConfig(input_path=path, suites=("devissage",),
                                     max_level=2))
        assert code == 2
        assert report["verdict"] == "FAIL"
        names = [c["name"] for c in report["suites"]["devissage"]["checks"]
                 if c["verdict"] == "FAIL"]
        assert any("kernel object" in n for n in names)

    def test_parse_failure_exits_four(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("not json at all")
        code, report = run(RunConfig(input_path=str(path)))
        assert code == 4
        assert report["verdict"] == "ERROR"
        assert report["error"]["kind"] == "parse"

    @pytest.mark.parametrize("field, value, named", [
        ("genus", "two", "components[0].genus"),
        ("genus", None, "components[0].genus"),
        ("f", "x", "jacobians[0].f"),
        ("charpoly", [1, -2, 0], "jacobians[0]"),
        ("q", 1, "jacobians[0]"),
        ("jacobians", 5, "jacobians"),
        # JSON floats and bools are not integers: no silent truncation
        ("genus", 0.9, "components[0].genus"),
        ("ell", 3.7, "ell"),
        ("f", True, "jacobians[0].f"),
        # beyond the bound where primality is decided deterministically
        ("ell", PRIME_BOUND, "ell"),
    ])
    def test_malformed_field_exits_four(self, tmp_path, field, value, named):
        payload = banana_raw(
            genus=(1, 0),
            jacobians=[{"orbit_rep": "u", "charpoly": [1, -2, 5],
                        "q": 5, "f": 1}])
        if field == "genus":
            payload["components"][0]["genus"] = value
        elif field in ("jacobians", "ell"):
            payload[field] = value
        else:
            payload["jacobians"][0][field] = value
        path = write_instance(tmp_path, payload)
        code, report = run(RunConfig(input_path=path, suites=("graph",)))
        assert code == 4
        assert report["error"]["kind"] == "parse"
        assert named in report["error"]["message"]

    # 10 ** 40 + 1 is divisible by 17; PRIME_BOUND has no factor up to 41
    # and is no perfect power, so is_prime cannot decide it
    @pytest.mark.parametrize("q", [10, 10 ** 40 + 1, PRIME_BOUND],
                             ids=["10", "10^40+1", "undecided"])
    @pytest.mark.parametrize("where, named", [
        ("top", "instance: q"), ("jacobian", "jacobians[0]: q")])
    def test_q_not_a_prime_power_exits_four(self, tmp_path, q, where, named):
        jac = {"orbit_rep": "u", "charpoly": [1, -2, 5], "q": 5, "f": 1}
        payload = banana_raw(genus=(1, 0), jacobians=[jac])
        if where == "top":
            payload["q"] = q
        else:
            jac["q"] = q
        code, report = run(RunConfig(input_path=write_instance(tmp_path, payload),
                                     suites=("graph",)))
        assert code == 4
        assert report["error"]["kind"] == "parse"
        assert report["error"]["message"].startswith(named)

    def test_cap_exhaustion_exits_three(self):
        for suite in ("graph", "splitting", "bhn"):
            code, report = run(RunConfig(input_path=G1_SWAP, suites=(suite,),
                                         tree_cap=2))
            assert code == 3, suite
            assert report["error"]["kind"] == "cap", suite

    def test_capped_graph_takes_no_smith_form(self, monkeypatch):
        # the graph suite counts and caps the trees before h1_lattice
        calls = []
        for module, name in ((sequences, "h1_lattice"),
                             (exactlin, "smith_with_inverses")):
            def counted(*args, _name=name, _real=getattr(module, name)):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(module, name, counted)
        code, report = run(RunConfig(input_path=G1_SWAP, suites=("graph",),
                                     tree_cap=2))
        assert (code, report["error"]["kind"]) == (3, "cap")
        assert report["error"]["message"].startswith(
            "graph: 4 spanning trees exceed the cap of 2;")
        assert calls == []
        assert run(RunConfig(input_path=G1_SWAP, suites=("graph",)))[0] == 0
        assert {"h1_lattice", "smith_with_inverses"} <= set(calls)

    def test_capped_large_banana_exits_at_once(self, tmp_path, monkeypatch):
        # two components through 600 nodes: the count 600 * 2^599 comes
        # from the component multigraph's 1 x 1 cofactor, and the graph's
        # own 601 x 601 determinant is never taken
        nodes = [f"n{k}" for k in range(600)]
        path = write_instance(tmp_path, banana_raw(
            action=False, nodes=nodes,
            edges=[[c, n] for n in nodes for c in "uv"]))
        sizes = []
        real = IntMatrix.det
        monkeypatch.setattr(IntMatrix, "det",
                            lambda A: sizes.append(A.rows) or real(A))
        started = time.perf_counter()
        res = CliRunner().invoke(main, ["run", "--input", path,
                                        "--suite", "graph"])
        elapsed = time.perf_counter() - started
        assert res.exit_code == 3
        assert json.loads(res.stdout)["error"]["message"].startswith(
            f"graph: {600 * 2 ** 599} spanning trees exceed the cap of "
            f"{dualgraph.DEFAULT_TREE_CAP};")
        assert sizes and max(sizes) <= 1
        assert elapsed < 1.0, f"capped graph suite took {elapsed:.2f} s"

    def test_splitting_hands_build_psi_the_instance_orbits(self, tmp_path,
                                                           monkeypatch):
        # orbit sizes 2, 2, 1, ...: three orbits reach the gcd m = 1, and
        # each goes to build_psi as the instance holds it, a tuple of masks
        graph = random_symmetric_graph(random.Random(146))
        path = write_instance(tmp_path,
                              valid_raw(graph, random.Random(0), 3, 5))
        config = RunConfig(input_path=path, suites=("splitting",),
                           max_level=2)
        inst = build_instance(load_raw(path), config)
        given = []
        real = cli.build_psi
        monkeypatch.setattr(cli, "build_psi",
                            lambda xi, orbit: given.append(orbit)
                            or real(xi, orbit))
        cli._run_splitting(inst, config)
        assert [len(o) for o in given] == [2, 2, 1] * 2
        assert all(any(o is orbit for orbit in inst.orbits) for o in given)

    def test_fixed_rank_taken_once_per_run(self, monkeypatch):
        # the graph and bhn suites both read the instance's one rho
        calls = []
        real = sequences.invariant_rank
        monkeypatch.setattr(sequences, "invariant_rank",
                            lambda lat: calls.append(lat) or real(lat))
        code, report = run(RunConfig(input_path=G1_SWAP,
                                     suites=("graph", "bhn")))
        assert code == 0
        assert len(calls) == 1
        assert "rho=0" in json.dumps(report["suites"]["graph"])

    def test_repeated_roots_run_vanishing_to_exit_zero(self, tmp_path):
        # a supersingular genus-2 jacobian: P = (T^2 + 5)^2 has repeated
        # roots, and its 4^4 = 256 dimensional box power takes the shape
        # count, as a squarefree P does
        payload = {
            "schema": "devissage/1",
            "components": [{"id": "u", "genus": 2}, {"id": "v", "genus": 0}],
            "nodes": ["n"],
            "edges": [["u", "n"], ["v", "n"]],
            "action": [],
            "ell": 3,
            "q": 5,
            "jacobians": [{"orbit_rep": "u", "charpoly": [1, 0, 10, 0, 25],
                           "q": 5, "f": 1}],
        }
        path = write_instance(tmp_path, payload)
        started = time.perf_counter()
        code, report = run(RunConfig(input_path=path, suites=("vanishing",),
                                     seed=0))
        elapsed = time.perf_counter() - started
        assert code == 0
        assert elapsed < 1.0, f"vanishing suite took {elapsed:.2f} s"
        report["input"] = "instance.json"
        rendered = render_json(report).encode()
        assert hashlib.sha256(rendered).hexdigest() == (
            "2896929f7cf73e1abc9dbab0cd650e25f0306b1cd6afc1a2c37d3f7a41913de3")

    def test_graph_objects_built_once_per_run(self, monkeypatch):
        calls = {"tree_orbits": 0, "build_xi": 0}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(sequences, name),
                        **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(sequences, name, counted)
        code, _ = run(RunConfig(input_path=G2_TREE))
        assert code == 0
        assert calls == {"tree_orbits": 1, "build_xi": 4}  # max_level 4

    @pytest.mark.parametrize("max_level", (1, 2, 4))
    def test_constraint_smith_form_taken_once_per_run(self, monkeypatch,
                                                      max_level):
        # every level reads the one Smith form of Xi's constraints C, which
        # SmithForm.of takes of C^T
        config = RunConfig(input_path=G2_TREE, max_level=max_level)
        C = build_instance(load_raw(G2_TREE), config).xi_data.constraint
        real = exactlin.smith_with_inverses
        inputs = []

        def counted(A):
            inputs.append(A)
            return real(A)

        monkeypatch.setattr(exactlin, "smith_with_inverses", counted)
        levels = []
        real_build = sequences.build_xi
        monkeypatch.setattr(sequences, "build_xi", lambda *a: levels.append(
            a[2]) or real_build(*a))
        code, _ = run(config)
        assert code == 0
        assert sorted(levels) == list(range(1, max_level + 1))
        assert inputs.count(C.transpose()) == 1

    @pytest.mark.parametrize("suites", (("all",), ("splitting",)))
    def test_cycle_basis_smith_form_taken_once_per_run(self, monkeypatch,
                                                       suites):
        # h1_lattice and xi_lattice read the graph's one cycle basis, the
        # kernel of its boundary matrix B; a splitting-only run reads it for
        # Xi and builds no h1_lattice action matrices
        config = RunConfig(input_path=G1_SWAP, suites=suites)
        B = dualgraph._boundary_matrix(
            build_instance(load_raw(G1_SWAP), config).graph)
        real = exactlin.smith_with_inverses
        inputs = []
        monkeypatch.setattr(exactlin, "smith_with_inverses",
                            lambda A: inputs.append(A) or real(A))
        lattices = []
        real_h1 = sequences.h1_lattice
        monkeypatch.setattr(sequences, "h1_lattice",
                            lambda g: lattices.append(g) or real_h1(g))
        code, _ = run(config)
        assert code == 0
        assert inputs.count(B) == 1
        assert len(lattices) == (0 if suites == ("splitting",) else 1)

    def test_cap_does_not_leak_between_runs(self):
        suites = ("graph", "splitting", "bhn")
        capped = run(RunConfig(input_path=G1_SWAP, suites=suites, tree_cap=2))
        assert capped[0] == 3
        assert run(RunConfig(input_path=G1_SWAP, suites=suites))[0] == 0

    def test_large_prime_ell_finishes(self):
        code, report = run(RunConfig(input_path=G1_SWAP,
                                     suites=("graph", "bhn"),
                                     ell=2 ** 61 - 1))
        assert code == 0
        assert report["config"]["ell"] == 2 ** 61 - 1

    def test_bhn_needs_single_generator(self, tmp_path):
        payload = banana_raw(action=[[["a", "b"]], [["u", "v"]]])
        path = write_instance(tmp_path, payload)
        code, report = run(RunConfig(input_path=path, suites=("bhn",)))
        assert code == 4
        assert report["error"]["kind"] == "invalid"

    def test_json_rendering_skips_timings(self):
        code, report = run(RunConfig(input_path=G2_TREE, suites=("graph",)))
        assert code == 0
        assert "timings" in report
        assert "timings" not in json.loads(render_json(report))
        assert "s)" in render_text(report)

    @pytest.mark.parametrize("fixture, digest", [
        ("g1_swap.json",
         "2f1b1f7d532856bcfbaf8c3a578c1bdc58fe53746e646ad3ef6eeb3bebd0f956"),
        ("g2_tree.json",
         "5284e3da3c4a726b5af3d159ac37427f47f6d5f75a5fbcd8941cc922a46627a4"),
    ])
    def test_golden_report_digest(self, monkeypatch, fixture, digest):
        # the report embeds the input path, so run from the repository root
        monkeypatch.chdir(os.path.join(FIXTURES, os.pardir))
        code, report = run(RunConfig(
            input_path=f"fixtures/{fixture}",
            suites=tuple(FAST_SUITES.split(",")), seed=0))
        assert code == 0
        rendered = render_json(report).encode()
        assert hashlib.sha256(rendered).hexdigest() == digest

    @pytest.mark.parametrize("fixture, digest", [
        ("g1_swap.json",
         "23269ceecce5926937c0d2d537dbe7ff4ddffbb281004ceffa336368d07d6fdd"),
        ("g2_tree.json",
         "c95d14399a8be1404cb2f9817ec8608aefaa85c47f834bc1a6a0ffd0a583d62c"),
    ])
    def test_golden_vanishing_digest(self, fixture, digest):
        code, report = run(RunConfig(
            input_path=os.path.join(FIXTURES, fixture),
            suites=("vanishing",), seed=0))
        assert code == 0
        report["input"] = "instance.json"
        rendered = render_json(report).encode()
        assert hashlib.sha256(rendered).hexdigest() == digest

    def test_golden_vanishing_digest_outside_the_catalog(self, tmp_path):
        # a jacobian that WEIL_CATALOG does not hold adds an eighth fixture
        payload = banana4_raw()
        payload["jacobians"][0]["charpoly"] = [1, 1, 5]
        code, report = run(RunConfig(
            input_path=write_instance(tmp_path, payload),
            suites=("vanishing",), seed=0))
        assert code == 0
        checks = report["suites"]["vanishing"]["checks"]
        assert [c["structure"] for c in checks[:2]] == ["8 fixtures",
                                                        "840 probes"]
        report["input"] = "instance.json"
        rendered = render_json(report).encode()
        assert hashlib.sha256(rendered).hexdigest() == (
            "925c06946cad49ab89e6894267b910022155fd6d28ecc3ef6b9c13cbf4c758f7")

    # g1_swap.json with both components of genus 3 or 4 and one squarefree
    # Weil jacobian on each; the digests were recorded with the composed
    # power of degree (2g)^4, which took about 4 s at genus 3 and 270 s at
    # genus 4
    @pytest.mark.parametrize("genus, charpoly, digest", [
        (3, [1, -6, 23, -60, 115, -150, 125],
         "09e7e7b398a55cb945004134b9e784ea842f80371f8790a07b62115f1ca16c26"),
        (4, [1, -4, 16, -44, 110, -220, 400, -500, 625],
         "95b1acf732bde7d76ed199cbbc43ba5bbe9f633d89fb265f84683ba7421d6656"),
    ])
    def test_high_genus_vanishing_budget(self, tmp_path, genus, charpoly,
                                         digest):
        payload = _fixture_payload("g1_swap.json")
        payload["components"] = [{"id": c, "genus": genus} for c in "uv"]
        payload["jacobians"] = [{"orbit_rep": c, "f": 1, "q": 5,
                                 "charpoly": charpoly} for c in "uv"]
        config = RunConfig(input_path=write_instance(tmp_path, payload),
                           suites=("vanishing",), seed=0)
        started = time.perf_counter()
        code, report = run(config)
        elapsed = time.perf_counter() - started
        assert code == 0
        assert elapsed < 1.0, f"vanishing suite took {elapsed:.2f} s"
        report["input"] = "instance.json"
        rendered = render_json(report).encode()
        assert hashlib.sha256(rendered).hexdigest() == digest

    # g1_swap.json with u carrying a jacobian whose P repeats a factor:
    # E x E, the supersingular (T^2 + 5)^2 and E^3, E^4 for
    # E = T^2 - 2T + 5; Frobenius acts semisimply, so each is decided by
    # the shape count and crosschecked by the kernel up to dimension 100
    @pytest.mark.parametrize("charpoly", [
        [1, -4, 14, -20, 25],
        [1, 0, 10, 0, 25],
        [1, -6, 27, -68, 135, -150, 125],
        [1, -8, 44, -152, 406, -760, 1100, -1000, 625],
    ], ids=["ExE", "supersingular", "E^3", "E^4"])
    def test_repeated_root_vanishing_budget(self, tmp_path, charpoly):
        payload = _fixture_payload("g1_swap.json")
        payload["components"][0]["genus"] = (len(charpoly) - 1) // 2
        payload["jacobians"] = [{"orbit_rep": "u", "f": 1, "q": 5,
                                 "charpoly": charpoly}]
        config = RunConfig(input_path=write_instance(tmp_path, payload),
                           suites=("vanishing",))
        started = time.perf_counter()
        code, report = run(config)
        elapsed = time.perf_counter() - started
        assert code == 0
        assert elapsed < 1.0, f"vanishing suite took {elapsed:.2f} s"
        suite = report["suites"]["vanishing"]
        assert suite["verdict"] == "PASS"
        assert suite["checks"][0]["structure"] == "8 fixtures"

    # every check passes whatever the random draws, so the report alone
    # does not see them; the final states of the suites' two generators
    # pin how many draws random_cogroup and torsbis_maps make, and from
    # which ranges
    @pytest.mark.parametrize("seed, digest, draws", [
        (1, "a0a269176e16128560ae7ad151caf29709e92989934fbe3a79cef8a62bc02624",
         "57c1f01c550c9b91caf0f37c1a74cc46f8bb6c2d4b947852b8c4241e13baca52"),
        (7, "53e617438d3799547235e007b44ded77566bc07e1a032cfc1b8a4dc9ebba9637",
         "65cf369c6212cd230b4d667c27f9f8277052f58a14bef71fb91cda9b5953e267"),
        (199,
         "09cf318ef829ff43a5c3e45c51e45f6ad59003c450aaf8b76330ff138b569f33",
         "55f3f0cc9b368575eb1bd2150e18cde17835a0e48a646e0fd1a839cffda21ad3"),
    ], ids=["1", "7", "199"])
    def test_golden_digest_algebra_seeds(self, monkeypatch, seed, digest,
                                         draws):
        generators = []

        class Recording(cli.random.Random):
            def __init__(self, *args):
                super().__init__(*args)
                generators.append(self)

        monkeypatch.setattr(cli.random, "Random", Recording)
        code, report = run(RunConfig(input_path=G1_SWAP,
                                     suites=("boxcalc", "torsionlevels"),
                                     seed=seed))
        assert code == 0
        report["input"] = "instance.json"
        rendered = render_json(report).encode()
        assert hashlib.sha256(rendered).hexdigest() == digest
        states = repr([g.getstate() for g in generators]).encode()
        assert len(generators) == 2
        assert hashlib.sha256(states).hexdigest() == draws

    def test_memo_is_scoped_to_one_run(self, monkeypatch):
        config = RunConfig(input_path=G1_SWAP, suites=("vanishing",), seed=0)
        first = run(config)
        assert procyclic._MEMO
        sizes = []
        real_load = cli.load_raw

        def load_raw(path):
            sizes.append(len(procyclic._MEMO))
            return real_load(path)

        monkeypatch.setattr(cli, "load_raw", load_raw)
        second = run(config)
        assert sizes == [0]
        assert first[0] == second[0] == 0
        assert render_json(first[1]) == render_json(second[1])

    @pytest.mark.parametrize("name, frobs", [("g1_swap.json", 7),
                                             ("banana4_divisors.json", 8)])
    def test_memo_entries_per_function(self, name, frobs):
        # a memo key that merged or split results would move these counts
        run(RunConfig(input_path=os.path.join(FIXTURES, name)))
        counts = Counter(fn.__name__ for fn, _ in procyclic._MEMO)
        assert counts == {
            "_box_family": 34, "_box_nullity": 238,
            "_tate_power": 34, "_tate_fixed_rank": 238,
            "eigenproduct_poly": 35, "eigenproduct_multiplicity": 245,
            "torsion_frob": frobs, "weil_weight_check": 7}

    @pytest.mark.parametrize("shape, want_code, digest", [
        ("k4", 0,
         "e9a8ad347b28e96279f5776be9a1927b3f6d1f3220c86322cc8cd945fae3f525"),
        # the genus-1 component gives the known upsilon defect: exit 2
        ("banana4", 2,
         "6c6c45cddbdab03a1f70b31858146c12eb3f5b5862e5eddd9e9692f0342f991f"),
    ])
    def test_golden_digest_betti_three(self, tmp_path, shape, want_code,
                                       digest):
        payload = subdivided_k4_raw() if shape == "k4" else banana4_raw()
        path = write_instance(tmp_path, payload)
        code, report = run(RunConfig(
            input_path=path, suites=("splitting", "devissage", "bhn"),
            seed=0))
        assert code == want_code
        assert report["instance"]["betti"] == 3
        report["input"] = "instance.json"
        rendered = render_json(report).encode()
        assert hashlib.sha256(rendered).hexdigest() == digest

    # two generators: the h1 relation words, two ambient actions and the
    # stacked fixed-rank system; bhn is left out, it takes one generator
    def test_golden_digest_two_generators(self, tmp_path):
        code, report = run(RunConfig(
            input_path=write_instance(tmp_path, dihedral_cycle4_raw()),
            suites=("graph", "splitting", "devissage"), seed=0))
        assert code == 0
        assert report["instance"]["generators"] == 2
        report["input"] = "instance.json"
        rendered = render_json(report).encode()
        assert hashlib.sha256(rendered).hexdigest() == (
            "f4e432d9bdd8890ef14fc22777b9d0808b6020c307a4a39e1d9325d6d83dd16f")

    # explicit divisor configurations through every suite: node divisors
    # following a node swap, two free divisors per component under a
    # component swap, and the shipped banana4 fixture, whose genus-1
    # component gives the known upsilon defect
    @pytest.mark.parametrize("payload, want_code, digest", [
        (banana_raw(divisors=[
            {"id": "p_u", "at": {"component": "u"}},
            {"id": "p_v", "at": {"component": "v"}},
            {"id": "d_a", "at": {"node": "a"}},
            {"id": "d_b", "at": {"node": "b"}}]), 0,
         "9227c7152157946d572290fd6d7a1a4119d8994b7861b325e39ca18c8ff2003c"),
        (banana_raw(action=[[["u", "v"]]], divisors=[
            {"id": f"p_{c}{i}", "at": {"component": c}}
            for c in ("u", "v") for i in (1, 2)]), 0,
         "a794cbad71eba076e242f825580fe0bf83817cff3e06d310dd864015eb0a3738"),
        (_fixture_payload("banana4_divisors.json"), 2,
         "207486feae465163b32ab9034a65fbfb4414c3c826a689c3b6dad7c122ebae6e"),
    ], ids=["anchored-node-swap", "free-pairs-swapped", "banana4-fixture"])
    def test_golden_digest_divisor_configurations(self, tmp_path, payload,
                                                  want_code, digest):
        code, report = run(RunConfig(
            input_path=write_instance(tmp_path, payload), seed=0))
        assert code == want_code
        report["input"] = "instance.json"
        rendered = render_json(report).encode()
        assert hashlib.sha256(rendered).hexdigest() == digest

    def test_seed_changes_draws_not_verdicts(self):
        base = run(RunConfig(input_path=G2_TREE, suites=("boxcalc",)))
        other = run(RunConfig(input_path=G2_TREE, suites=("boxcalc",),
                              seed=99))
        assert base[0] == other[0] == 0
        assert base[1]["suites"]["boxcalc"]["verdict"] == "PASS"
        assert other[1]["suites"]["boxcalc"]["verdict"] == "PASS"


# ---------------------------------------------------------------------------
# a false proof step inside a suite

# suite -> (module, leaf helper, wrapper that makes one proof step false,
# the message the step raises with)
FAULTS = {
    "graph": (dualgraph, "solve_integer", lambda real: lambda *a: None,
              "induced matrix does not reproduce the edge action"),
    "splitting": (dualgraph, "_psi_column",
                  lambda real: lambda *a: [2 * v for v in real(*a)],
                  "phi after psi is not multiplication by the orbit size"),
    "devissage": (dualgraph, "_span_contains", lambda real: lambda *a: False,
                  "kernel of phi differs from the cycle image at this level"),
    "bhn": (sequences, "kernel_coordinates", lambda real: lambda *a: None,
            "action does not descend to the kernel module"),
    "vanishing": (procyclic, "_box_nullity",
                  lambda real: lambda *a: real(*a) + 1,
                  "root-product and kernel coranks disagree"),
}


class TestVerificationFailure:

    @pytest.mark.parametrize("suite", sorted(FAULTS))
    def test_false_step_is_a_failed_check(self, monkeypatch, suite):
        # the faulty suite runs first: the run goes on to the next one
        suites = (suite, "boxcalc")
        clean = run(RunConfig(input_path=G1_SWAP, suites=suites))
        assert clean[0] == 0
        module, helper, wrap, message = FAULTS[suite]
        monkeypatch.setattr(module, helper, wrap(getattr(module, helper)))

        code, report = run(RunConfig(input_path=G1_SWAP, suites=suites))
        assert code == 2
        assert report["verdict"] == "FAIL"
        assert report["suites"][suite] == {
            "checks": [{"name": "internal verification",
                        "structure": message, "verdict": "FAIL"}],
            "verdict": "FAIL"}
        assert report["suites"]["boxcalc"] == clean[1]["suites"]["boxcalc"]
        assert set(report["timings"]) == set(suites)

        res = CliRunner().invoke(main, ["run", "--input", G1_SWAP,
                                        "--suite", ",".join(suites)])
        assert res.exit_code == 2
        assert "Traceback" not in res.output
        assert json.loads(res.stdout)["suites"][suite] == \
            report["suites"][suite]

    def test_false_balance_fails_only_its_suite(self, monkeypatch):
        # the balance in _orbit_section is an identity, so a false one is a
        # defect of the computation: it fails the splitting suite alone
        real = dualgraph._check_balance
        monkeypatch.setattr(dualgraph, "_check_balance",
                            lambda diff: real(diff + 1))
        suites = ("graph", "splitting", "devissage")
        code, report = run(RunConfig(input_path=G1_SWAP, suites=suites))
        assert code == 2
        checks = report["suites"]["splitting"]["checks"]
        assert [(c["name"], c["verdict"]) for c in checks] == \
            [("internal verification", "FAIL")]
        assert checks[0]["structure"].startswith("class totals differ by 1")
        assert report["suites"]["graph"]["verdict"] == "PASS"
        assert report["suites"]["devissage"]["verdict"] == "PASS"

        res = CliRunner().invoke(main, ["run", "--input", G1_SWAP,
                                        "--suite", ",".join(suites)])
        assert res.exit_code == 2
        assert "Traceback" not in res.output
        assert json.loads(res.stdout)["suites"] == report["suites"]


# error class -> (the call that raises it, exit code, the report's error
# kind, None where the class fails its suite and the run goes on)
OUTCOMES = {
    ParseError: ("build_instance", 4, "parse"),
    InvalidInstance: ("suite", 4, "invalid"),
    EnumerationCapExceeded: ("suite", 3, "cap"),
    VerificationFailed: ("suite", 2, None),
}


class TestErrorOutcomes:

    def test_every_error_class_has_an_outcome(self):
        # a new class needs a caller that branches on it, and a row here
        assert set(DevissageError.__subclasses__()) == set(OUTCOMES)

    @pytest.mark.parametrize("cls", list(OUTCOMES),
                             ids=lambda cls: cls.__name__)
    def test_outcome_of_each_class(self, monkeypatch, cls):
        where, want_code, kind = OUTCOMES[cls]

        def planted(*args):
            raise cls("planted")

        if where == "build_instance":
            monkeypatch.setattr(cli, "build_instance", planted)
        else:
            monkeypatch.setitem(cli._RUNNERS, "graph", planted)
        suites = ("graph", "boxcalc")
        code, report = run(RunConfig(input_path=G1_SWAP, suites=suites))
        assert code == want_code
        if kind is None:
            assert report["verdict"] == "FAIL"
            assert report["suites"]["graph"]["checks"] == [
                {"name": "internal verification", "structure": "planted",
                 "verdict": "FAIL"}]
            assert report["suites"]["boxcalc"]["verdict"] == "PASS"
        else:
            message = "planted" if where == "build_instance" \
                else "graph: planted"
            assert report["verdict"] == "ERROR"
            assert report["error"] == {"kind": kind, "message": message}


# ---------------------------------------------------------------------------
# instance-file fuzzing

FUZZ_BASES = {name: _fixture_payload(name)
              for name in ("g1_swap.json", "g2_tree.json")}
FUZZ_FIELDS = ("components", "nodes", "edges", "action", "ell", "q",
               "divisors", "jacobians", "schema")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70)
    | st.floats(allow_infinity=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)
EXTREME_ELLS = (PRIME_BOUND - 1, PRIME_BOUND, PRIME_BOUND + 1, 10 ** 24 + 7,
                2 ** 61 - 1, 2, 5, 1, 0, -3, 9, True, 3.0, "3")
EXTREME_QS = (10 ** 40 + 1, 3 ** 80, 2 ** 200, 2, 1, 0, -5, 9, 5.0, "5")


def _vertices(payload):
    """The vertex ids a payload names, as the parser will read them."""
    comps = payload.get("components")
    ids = [c.get("id") for c in comps if isinstance(c, dict)] \
        if isinstance(comps, list) else []
    nodes = payload.get("nodes")
    return ids + (list(nodes) if isinstance(nodes, list) else []) or ["u"]


@st.composite
def mutated_instances(draw):
    """A shipped fixture with one to three structural or numeric defects."""
    payload = json.loads(json.dumps(
        FUZZ_BASES[draw(st.sampled_from(sorted(FUZZ_BASES)))]))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from((
            "replace", "delete", "unknown_vertex", "bad_id", "permutation",
            "ell", "q", "genus", "jacobian", "top_level")))
        if not isinstance(payload, dict):
            break
        if kind == "replace":
            payload[draw(st.sampled_from(FUZZ_FIELDS))] = draw(JSON_VALUES)
        elif kind == "delete":
            payload.pop(draw(st.sampled_from(FUZZ_FIELDS)), None)
        elif kind == "unknown_vertex":
            edge = [draw(st.sampled_from(_vertices(payload))), "zz"]
            if draw(st.booleans()):
                payload["edges"] = list(payload.get("edges") or []) + [edge]
            else:
                payload["action"] = [[edge]]
        elif kind == "bad_id":
            field = draw(st.sampled_from(("components", "nodes")))
            items = payload.get(field)
            if isinstance(items, list) and items:
                k = draw(st.integers(0, len(items) - 1))
                value = draw(JSON_VALUES)
                if field == "components" and isinstance(items[k], dict):
                    items[k]["id"] = value
                else:
                    items[k] = value
        elif kind == "permutation":
            # cycles over arbitrary vertices: swaps of a component with a
            # node, repeated vertices, maps that break the edge set
            vertices = st.sampled_from(_vertices(payload))
            payload["action"] = draw(st.lists(
                st.lists(st.lists(vertices, max_size=3), max_size=2),
                max_size=2))
        elif kind == "ell":
            payload["ell"] = draw(st.sampled_from(EXTREME_ELLS))
        elif kind == "q":
            payload["q"] = draw(st.sampled_from(EXTREME_QS))
        elif kind == "genus":
            comps = payload.get("components")
            if isinstance(comps, list) and comps \
                    and isinstance(comps[0], dict):
                comps[0]["genus"] = draw(st.sampled_from(
                    (-1, 1, 2, "1", None, 1.5)))
        elif kind == "jacobian":
            payload["jacobians"] = [{
                "orbit_rep": draw(st.sampled_from(_vertices(payload))),
                "charpoly": draw(st.lists(st.integers(-30, 30), max_size=5)),
                "q": draw(st.sampled_from((5, 4, 9, 0))),
                "f": draw(st.integers(0, 2))}]
        else:
            payload = draw(st.sampled_from(([], [payload], 3, "x", {})))
    return payload


@st.composite
def action_stacks(draw):
    """(c, matrices): 1-3 c x c integer matrices, some signed permutations."""
    c = draw(st.integers(1, 6))
    mats = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            perm = draw(st.permutations(range(c)))
            signs = [draw(st.sampled_from((1, 1, -1))) for _ in range(c)]
            mats.append([[signs[i] if j == perm[i] else 0 for j in range(c)]
                         for i in range(c)])
        else:
            mats.append([[draw(st.integers(-2, 2)) for _ in range(c)]
                         for _ in range(c)])
    return c, mats


class TestGraphSecondRoutes:
    """The graph suite's second routes against sympy."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32))
    def test_laplacian_cofactor_matches_sympy(self, seed):
        g = random_legal_graph(random.Random(seed), max_components=6,
                               max_extra_nodes=5)
        rows = [list(r) for r in dualgraph.laplacian(g).data]
        assert cli._laplacian_cofactor(g) == sympy_laplacian_cofactor(rows)

    @settings(max_examples=100, deadline=None)
    @given(action_stacks())
    def test_rational_fixed_rank_matches_sympy(self, stack):
        c, mats = stack
        lattice = SimpleNamespace(
            rank=c, action_matrices=[IntMatrix.from_rows(m, c) for m in mats])
        rows = [[m[k][j] - (j == k) for j in range(c)]
                for m in mats for k in range(c)]
        assert cli._rational_fixed_rank(lattice) == c - sympy_rank(rows)


class TestRuntimeDependencies:
    def test_cli_import_loads_no_sympy(self):
        code = ("import sys, devissage.cli; print(sorted("
                "m for m in sys.modules if m.split('.')[0] == 'sympy'))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (SRC, os.environ.get("PYTHONPATH")))))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("out, code", [(None, 0),
                                           ("/nonexistent/dir/r.json", 4)])
    def test_module_entry_point_runs(self, out, code):
        # python -m devissage.cli runs the command, not only the import
        args = [sys.executable, "-m", "devissage.cli", "run",
                "--input", G2_TREE, "--suite", "graph"]
        if out:
            args += ["--out", out]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (SRC, os.environ.get("PYTHONPATH")))))
        res = subprocess.run(args, env=env, capture_output=True, text=True,
                             check=False)
        assert res.returncode == code, res.stderr
        if out:
            assert res.stdout == ""
            assert res.stderr.startswith(f"error: cannot write {out}: ")
        else:
            assert json.loads(res.stdout)["verdict"] == "PASS"

    def test_reach_tool_runs(self):
        # tools/reach.py lists the functions no suite enters, with a total,
        # then the line count of the package
        tool = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                            "reach.py")
        res = subprocess.run([sys.executable, tool, G2_TREE],
                             capture_output=True, text=True, check=False)
        assert res.returncode == 0, res.stderr
        total, last = res.stdout.splitlines()[-2:]
        assert re.fullmatch(r"\s*\d+  total in \d+ functions never entered",
                            total), total
        pkg = os.path.join(SRC, "devissage")
        lines = 0
        for name in os.listdir(pkg):
            if name.endswith(".py"):
                with open(os.path.join(pkg, name), "rb") as fh:
                    lines += fh.read().count(b"\n")
        assert last == f"{lines:5d}  lines in src/devissage/*.py"

    def test_report_digests_are_recorded(self):
        """tools/digests.py prints, line by line, what tests/digests.txt
        records: the exit code and report digest of the fixtures at seeds
        0 and 3, the graph-scale files at seeds 0, 3 and 1000, the jacobian
        on a component orbit of size 2 and the algebra seeds.  A change that means to alter report bytes
        re-records the file with the tool and says so in CHANGES.md."""
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        res = subprocess.run([sys.executable, "tools/digests.py"], cwd=root,
                             capture_output=True, text=True, check=False)
        assert res.returncode == 0, res.stderr
        with open(os.path.join(root, "tests", "digests.txt"),
                  encoding="utf-8") as fh:
            assert res.stdout.splitlines() == fh.read().splitlines()

    def test_bench_summary_of_two_pairs(self):
        # tools/bench_json.py's summary on a synthetic log: pair 1 a win
        # for the change, pair 2 a tie (counted for neither side), and a
        # traced run that the summary leaves out
        spec = importlib.util.spec_from_file_location(
            "bench_json", os.path.join(os.path.dirname(__file__), os.pardir,
                                       "tools", "bench_json.py"))
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)

        def run(pair, side, wall, rss, trace=0, failed=0):
            return {"pair": pair, "side": side, "workload": "w", "seed": 0,
                    "trace": trace, "result": {
                        "metrics": {"wall_s": {"value": wall},
                                    "peak_rss_mb": {"value": rss}},
                        "attempted": 10, "failed": failed, "correct": True}}

        runs = [run(1, "parent", 2.0, 30.0), run(1, "change", 1.5, 31.0),
                run(2, "change", 3.0, 29.0, failed=1),
                run(2, "parent", 3.0, 30.0),
                run(3, "parent", 9.0, 99.0, trace=1)]
        metrics = [{"name": "wall_s", "better": "lower"},
                   {"name": "peak_rss_mb", "better": "lower"}]
        wall, rss = bench.summarize(runs, metrics)
        assert wall == {
            "workload": "w", "seed": 0, "metric": "wall_s", "pairs": 2,
            "parent_median": 2.5, "change_median": 2.25, "parent_iqr": 0.5,
            "change_wins": 1, "parent_range": [2.0, 3.0],
            "change_range": [1.5, 3.0], "parent_failed_ratio": 0.0,
            "change_failed_ratio": 0.05, "all_correct": True}
        assert (rss["parent_median"], rss["change_median"],
                rss["parent_iqr"], rss["change_wins"]) == (30.0, 30.0, 0.0, 1)

    def test_src_has_no_sympy_import(self):
        pattern = re.compile(r"^\s*(import|from)\s+sympy\b", re.M)
        pkg = os.path.join(SRC, "devissage")
        for name in sorted(os.listdir(pkg)):
            if name.endswith(".py"):
                with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                    assert not pattern.search(fh.read()), name


class TestInstanceFuzz:

    @settings(max_examples=120, deadline=None)
    @given(payload=mutated_instances(),
           precision=st.sampled_from((1, 2, 8, 12)),
           level=st.sampled_from(("one", "max", "zero", "above")))
    def test_mutated_instances_exit_cleanly(self, tmp_path_factory, payload,
                                            precision, level):
        max_level = {"one": 1, "max": precision, "zero": 0,
                     "above": precision + 1}[level]
        path = tmp_path_factory.mktemp("fuzz") / "instance.json"
        path.write_text(json.dumps(payload))
        fields = dict(input_path=str(path), suites=tuple(FAST_SUITES.split(",")),
                      precision=precision, max_level=max_level, tree_cap=50)
        if not 1 <= max_level <= precision:
            # the command line turns this into exit 4 before any run
            with pytest.raises(InvalidInstance):
                RunConfig(**fields)
            return
        code, report = run(RunConfig(**fields))
        assert code in (0, 2, 3, 4)
        assert (code in (3, 4)) == ("error" in report)
        failed = any(c["verdict"] == "FAIL"
                     for s in report.get("suites", {}).values()
                     for c in s["checks"])
        if code == 0:
            assert report["verdict"] == "PASS" and not failed
        elif code == 2:
            assert report["verdict"] == "FAIL" and failed
        else:
            assert report["verdict"] == "ERROR"
            assert report["error"]["kind"] in (
                ("cap",) if code == 3 else ("parse", "invalid"))
        render_json(report)
        render_text(report)


# ---------------------------------------------------------------------------
# valid instances with positive genus, through every suite

def weil_charpoly(rng, genus, Q):
    """[1, -a, Q] with |a| <= 2 sqrt(Q) for genus 1, a product of genus
    such factors for higher genus: pure of weight one over F_Q."""
    coeffs = [1]
    for _ in range(genus):
        bound = isqrt(4 * Q)
        factor = [1, -rng.randint(-bound, bound), Q]
        coeffs = [sum(coeffs[i] * factor[k - i]
                      for i in range(len(coeffs)) if 0 <= k - i < 3)
                  for k in range(len(coeffs) + 2)]
    return coeffs


def valid_raw(graph, rng, ell, q):
    """Instance file for graph, with a Weil jacobian on every positive-genus
    orbit: extension degree f the orbit size, base q^f."""
    action = []
    for perm in graph.action:
        seen, cycles = set(), []
        for start in sorted(perm):
            cyc, v = [], start
            while v not in seen:
                seen.add(v)
                cyc.append(v)
                v = perm[v]
            if len(cyc) > 1:
                cycles.append(cyc)
        action.append(cycles)
    jacobians = [{"orbit_rep": orb[0], "f": len(orb), "q": q ** len(orb),
                  "charpoly": weil_charpoly(rng, graph.genus(orb[0]),
                                            q ** len(orb))}
                 for orb in graph.component_orbits() if graph.genus(orb[0])]
    return {
        "schema": "devissage/1",
        "components": [{"id": c, "genus": g} for c, g in graph.components],
        "nodes": list(graph.nodes),
        "edges": [list(e) for e in graph.edges],
        "action": action,
        "ell": ell,
        "q": q,
        "jacobians": jacobians,
    }


def with_divisors(payload, graph, rng):
    """payload with an explicit divisor list: one or two free divisors on
    every component, as many on each component of an orbit, and a divisor
    on every node of a random choice of node orbits."""
    divisors = []
    for orbit in graph.component_orbits():
        count = rng.randint(1, 2)
        divisors += [{"id": f"p_{c}_{i}", "at": {"component": c}}
                     for c in orbit for i in range(count)]
    for orbit in dualgraph.orbit_partition(
            sorted(graph.nodes), lambda v: [p[v] for p in graph.action]):
        if rng.random() < 0.5:
            divisors += [{"id": f"d_{n}", "at": {"node": n}}
                         for n in sorted(orbit)]
    return dict(payload, divisors=divisors)


def swapped_pairs():
    """Two genus-1 components swapped by the action, and two genus-2 ones:
    two orbits of size 2, each component joined to a genus-0 hub."""
    pairs = (("u1", "v1", 1), ("u2", "v2", 2))
    comps = [("w", 0)] + [(c, g) for u, v, g in pairs for c in (u, v)]
    nodes = [f"n{c}" for c, _ in comps[1:]]
    perm = {}
    for u, v, _ in pairs:
        perm.update({u: v, v: u, f"n{u}": f"n{v}", f"n{v}": f"n{u}"})
    return dualgraph.DualGraph(
        comps, nodes,
        [e for c, _ in comps[1:] for e in ((c, f"n{c}"), ("w", f"n{c}"))],
        [perm])


class TestValidInstanceSweep:
    """Valid instances never crash a suite, and a rerun renders the same.

    The vanishing suite probes its whole polynomial catalog on every run,
    about a quarter of a second, so the draws are few.
    """

    def assert_runs_cleanly(self, tmp_path, payload):
        path = write_instance(tmp_path, payload)
        config = RunConfig(input_path=path, precision=2, max_level=2,
                           tree_cap=200)
        code, report = run(config)
        assert code in (0, 2, 3), report.get("error")
        if code == 3:
            # the tree cap is the only cap a valid instance can reach
            assert report["error"]["kind"] == "cap"
            assert "spanning trees exceed the cap" in report["error"]["message"]
        assert render_json(run(config)[1]) == render_json(report)

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), symmetric=st.booleans(),
           primes=st.sampled_from([(3, 5), (2, 3)]))
    def test_random_graphs_with_genus(self, tmp_path_factory, seed, symmetric,
                                      primes):
        # a seeded Random: hypothesis' own randoms seldom draw an action
        rng = random.Random(seed)
        graph = (random_symmetric_graph if symmetric else random_legal_graph)(
            rng, genus_pool=(0, 1, 2, 3, 4))
        self.assert_runs_cleanly(tmp_path_factory.mktemp("sweep"),
                                 valid_raw(graph, rng, *primes))

    def test_orbits_of_size_two(self, tmp_path):
        payload = valid_raw(swapped_pairs(), random.Random(0), 3, 5)
        assert [(j["f"], len(j["charpoly"])) for j in payload["jacobians"]] \
            == [(2, 3), (2, 5)]
        self.assert_runs_cleanly(tmp_path, payload)

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           primes=st.sampled_from([(3, 5), (2, 3)]))
    def test_random_graphs_with_divisors(self, tmp_path_factory, seed,
                                         primes):
        # a seeded Random: hypothesis' own randoms seldom draw an action
        rng = random.Random(seed)
        graph = random_legal_graph(rng, genus_pool=(0, 1, 2, 3, 4))
        payload = with_divisors(valid_raw(graph, rng, *primes), graph, rng)
        self.assert_runs_cleanly(tmp_path_factory.mktemp("sweep"), payload)

    def test_orbits_of_size_two_with_divisors(self, tmp_path):
        graph = swapped_pairs()
        rng = random.Random(0)
        payload = with_divisors(valid_raw(graph, rng, 3, 5), graph, rng)
        assert len(payload["divisors"]) > len(graph.component_ids)
        self.assert_runs_cleanly(tmp_path, payload)


class TestCommandLine:

    def test_run_bhn_on_swap_fixture(self):
        runner = CliRunner()
        res = runner.invoke(main, ["run", "--input", G1_SWAP,
                                   "--suite", "bhn"])
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["verdict"] == "PASS"
        assert report["suites"]["bhn"]["rho"] == 0

    def test_text_format(self):
        runner = CliRunner()
        res = runner.invoke(main, ["run", "--input", G2_TREE,
                                   "--suite", "graph", "--format", "text"])
        assert res.exit_code == 0
        assert "devissage report" in res.output
        assert "[graph] PASS" in res.output

    def test_out_writes_file(self, tmp_path):
        target = tmp_path / "report.json"
        runner = CliRunner()
        res = runner.invoke(main, ["run", "--input", G2_TREE,
                                   "--suite", "graph",
                                   "--out", str(target)])
        assert res.exit_code == 0
        assert res.output == ""
        assert json.loads(target.read_text())["verdict"] == "PASS"

    @pytest.mark.parametrize("where", ["missing-dir", "is-dir"])
    def test_unwritable_out_exits_four(self, tmp_path, monkeypatch, where):
        target = str(tmp_path / "missing" / "r.json"
                     if where == "missing-dir" else tmp_path)

        def no_suite(config):
            raise AssertionError("a suite ran before --out was checked")

        monkeypatch.setattr(cli, "run", no_suite)
        res = CliRunner().invoke(main, ["run", "--input", G2_TREE,
                                        "--suite", "graph", "--out", target])
        assert res.exit_code == 4
        assert res.stdout == ""
        assert res.stderr.startswith(f"error: cannot write {target}: ")
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("spelling", ["same", "dotted", "hard-link"])
    def test_out_naming_the_input_exits_four(self, tmp_path, monkeypatch,
                                             spelling):
        # opening --out truncates it, which would destroy the input
        source = tmp_path / "x.json"
        with open(G1_SWAP, "rb") as fh:
            source.write_bytes(fh.read())
        before = source.read_bytes()
        target = {"same": str(source),
                  "dotted": str(tmp_path / "." / "x.json"),
                  "hard-link": str(tmp_path / "link.json")}[spelling]
        if spelling == "hard-link":
            os.link(source, target)

        def no_suite(config):
            raise AssertionError("a suite ran before --out was checked")

        monkeypatch.setattr(cli, "run", no_suite)
        res = CliRunner().invoke(main, ["run", "--input", str(source),
                                        "--out", target])
        assert res.exit_code == 4
        assert res.stdout == ""
        assert res.stderr == f"error: --out {target} is the input file\n"
        assert source.read_bytes() == before

    def test_malformed_input_exits_four(self, tmp_path):
        path = tmp_path / "zz.json"
        path.write_text("{")
        runner = CliRunner()
        res = runner.invoke(main, ["run", "--input", str(path)])
        assert res.exit_code == 4
        assert json.loads(res.output)["verdict"] == "ERROR"

    @pytest.mark.parametrize("content", [
        # bytes that are not UTF-8 inside an otherwise valid instance
        b'{"schema": "devissage/1", "nodes": ["\xff\xfe"]}',
        # deeper than the JSON decoder can recurse
        b"[" * 100_000 + b"]" * 100_000,
        # more digits than Python converts to an int
        b'{"schema": "devissage/1", "ell": ' + b"7" * 5000 + b"}",
    ], ids=["not-utf8", "nested-100000", "int-5000-digits"])
    def test_undecodable_input_exits_four(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        res = CliRunner().invoke(main, ["run", "--input", str(path)])
        assert res.exit_code == 4
        assert "Traceback" not in res.output
        error = json.loads(res.stdout)["error"]
        assert error["kind"] == "parse"
        assert str(path) in error["message"]

    @pytest.mark.parametrize("args", [
        ["--input", G2_TREE, "--format", "yaml"],
        ["--input", G2_TREE, "--level", "x"],
        [],
    ], ids=["format-yaml", "level-x", "no-input"])
    def test_usage_error_exits_four(self, args):
        res = CliRunner().invoke(main, ["run"] + args)
        assert res.exit_code == 4
        assert res.stdout == ""
        assert "Usage:" in res.stderr and "Error:" in res.stderr

    @pytest.mark.parametrize("args", [["--help"], ["run", "--help"]])
    def test_help_exits_zero(self, args):
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 0
        assert res.stdout.startswith("Usage:")

    def test_bad_flag_combination_exits_four(self):
        runner = CliRunner()
        res = runner.invoke(main, ["run", "--input", G2_TREE, "--ell", "9"])
        assert res.exit_code == 4

    def test_ell_flag_beyond_prime_bound_exits_four(self):
        runner = CliRunner()
        res = runner.invoke(main, ["run", "--input", G2_TREE,
                                   "--ell", str(PRIME_BOUND + 2)])
        assert res.exit_code == 4
        error = json.loads(res.stdout)["error"]
        assert error["kind"] == "parse" and "ell" in error["message"]

    def test_tree_cap_flag_exits_three(self):
        runner = CliRunner()
        res = runner.invoke(main, ["run", "--input", G1_SWAP,
                                   "--suite", "graph", "--tree-cap", "2"])
        assert res.exit_code == 3

    @pytest.mark.parametrize("args, seconds", [
        (["--suite", "graph"], 2.0),
        (["--suite", "bhn", "--tree-cap", "2000"], 1.0),
    ])
    def test_cap_fails_before_enumerating(self, tmp_path, args, seconds):
        # subdivided K6 has 1327104 spanning trees: a minute to enumerate,
        # one determinant to count
        path = write_instance(tmp_path, subdivided_complete_raw(6))
        started = time.perf_counter()
        res = CliRunner().invoke(main, ["run", "--input", path] + args,
                                 env={"DEVISSAGE_TREE_CAP": None})
        elapsed = time.perf_counter() - started
        assert res.exit_code == 3
        error = json.loads(res.stdout)["error"]
        assert error["kind"] == "cap" and "1327104" in error["message"]
        assert elapsed < seconds

    def test_tree_cap_env_override(self):
        runner = CliRunner()
        res = runner.invoke(main, ["run", "--input", G1_SWAP,
                                   "--suite", "graph"],
                            env={"DEVISSAGE_TREE_CAP": "2"})
        assert res.exit_code == 3
        res = runner.invoke(main, ["run", "--input", G1_SWAP,
                                   "--suite", "graph"],
                            env={"DEVISSAGE_TREE_CAP": "junk"})
        assert res.exit_code == 4
        assert "'junk' is not a valid integer" in res.stderr

    def test_flag_beats_env(self):
        runner = CliRunner()
        res = runner.invoke(main, ["run", "--input", G1_SWAP,
                                   "--suite", "graph",
                                   "--tree-cap", "100"],
                            env={"DEVISSAGE_TREE_CAP": "2"})
        assert res.exit_code == 0

    def test_precision_is_only_recorded(self):
        # --precision is checked against --level and written into config;
        # no suite reads it, so the reports differ in that line alone
        outs = []
        for precision in ("2", "8"):
            res = CliRunner().invoke(main, ["run", "--input", G1_SWAP,
                                            "--level", "2",
                                            "--precision", precision])
            assert res.exit_code == 0
            outs.append(res.output.splitlines())
        low, high = outs
        assert len(low) == len(high)
        assert [(a, b) for a, b in zip(low, high) if a != b] == [
            ('    "precision": 2,', '    "precision": 8,')]

    def test_identical_runs_are_byte_identical(self):
        runner = CliRunner()
        args = ["run", "--input", G1_SWAP, "--suite", FAST_SUITES]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == second.exit_code == 0
        assert first.output == second.output

    def test_all_suites_on_tree_fixture(self):
        # full pipeline including the vanishing grid; slowest cli test
        runner = CliRunner()
        res = runner.invoke(main, ["run", "--input", G2_TREE])
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["verdict"] == "PASS"
        assert set(report["suites"]) == set(SUITE_NAMES)


class TestExplain:

    KNOWN = ("spl1", "spl2", "dev1", "dev2", "upsilon", "bhnfin",
             "cohom1", "cohom2")

    def test_registry_complete(self):
        for name in self.KNOWN:
            text = explain(name)
            assert name in text
            assert "COMPUTED" in text

    def test_modeled_terms_flagged(self):
        for name in ("spl1", "dev1", "dev2", "upsilon", "bhnfin", "cohom1",
                     "cohom2"):
            assert "MODELED" in explain(name)
        assert "MODELED" not in explain("spl2")
        # the kernel object is modeled wherever a sequence names it
        upsilon = {name: re.findall(r"\[(\w+)\] Upsilon\(r-1\)",
                                    explain(name))
                   for name in self.KNOWN}
        assert {n for n, found in upsilon.items() if found} == \
            {"dev1", "dev2", "upsilon"}
        assert all(status == "MODELED" for found in upsilon.values()
                   for status in found)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown sequence 'bogus'"):
            explain("bogus")

    def test_command_exit_codes(self):
        runner = CliRunner()
        assert runner.invoke(main, ["explain", "spl2"]).exit_code == 0
        assert runner.invoke(main, ["explain", "bogus"]).exit_code == 4
