"""Correctness checks for one benchmark operation.

An operation is one ``run(RunConfig(...))`` call and its ``render_json``.
Its outcome must match ``expected.json``: the exit code and, per suite,
the verdict of every check in order ("P" for PASS, "F" for FAIL).  An
operation that ends in an error report is checked only for the error
kind, so a later change that improves the message still counts as
correct.  The graph suite's tree count and betti number are compared with
values this module computes itself, and for seed 0 the SHA-256 of the
rendered report must equal the digest recorded in ``expected.json``.
"""

import hashlib
import json
import os
from fractions import Fraction

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def verdict_strings(report):
    return {name: "".join(c["verdict"][0] for c in suite["checks"])
            for name, suite in report.get("suites", {}).items()}


def _det(rows):
    """Exact determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in rows]
    n, det = len(a), Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return int(det)


def matrix_tree_count(summary):
    """Spanning trees of the dual graph by the matrix-tree theorem."""
    verts = [c["id"] for c in summary["components"]] + summary["nodes"]
    idx = {v: i for i, v in enumerate(verts)}
    lap = [[0] * len(verts) for _ in verts]
    for a, b in summary["edges"]:
        i, j = idx[a], idx[b]
        lap[i][i] += 1
        lap[j][j] += 1
        lap[i][j] -= 1
        lap[j][i] -= 1
    return _det([row[1:] for row in lap[1:]])


def _structure(suite, prefix):
    for c in suite["checks"]:
        if c["name"].startswith(prefix):
            return c.get("structure", "")
    return ""


def graph_problems(report):
    """Tree count and betti number of the graph suite, recomputed here."""
    summary = report["instance"]
    suite = report["suites"]["graph"]
    problems = []
    edges = len(summary["edges"])
    verts = len(summary["components"]) + len(summary["nodes"])
    betti = edges - verts + 1
    if (summary["betti"] != betti
            or _structure(suite, "first betti number") != f"betti={betti}"):
        problems.append(f"betti is not E - V + 1 = {betti}")
    trees = matrix_tree_count(summary)
    if _structure(suite, "spanning tree enumeration") != f"{trees} trees":
        problems.append(f"tree count is not the cofactor {trees}")
    return problems


def problems(expected, family, code, report, text, digest_key=None):
    """Everything wrong with one operation's outcome; empty when correct."""
    want = expected["families"][family]
    out = []
    if code != want["exit"]:
        out.append(f"exit code {code}, expected {want['exit']}")
    if "error" in want:
        kind = report.get("error", {}).get("kind")
        if kind != want["error"]:
            out.append(f"error kind {kind!r}, expected {want['error']!r}")
        return out
    got = verdict_strings(report)
    if got != want["verdicts"]:
        out.append(f"verdicts {got}, expected {want['verdicts']}")
    if "graph" in report.get("suites", {}):
        out += graph_problems(report)
    if digest_key is not None:
        recorded = expected["seed0_sha256"].get(digest_key)
        if recorded is not None and digest(text) != recorded:
            out.append(f"render_json digest differs from the one recorded "
                       f"for {digest_key}")
    return out
