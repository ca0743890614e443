"""Finite-dimensional matrix forms of the two projective families.

Each generator's matrix is read from a table of its nonzero entries and
verified (not assumed) to be bracket-consistent: for every basis pair
the matrix commutator must equal the matrix of the vector-field bracket
up to ONE global sign, the same across all pairs.  The maps come out as
anti-homomorphisms (sign -1) for the bracket conventions used by the
vector-field layer; the verifier records whichever sign it finds and
reports any pair violating consistency.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .solver import FAMILIES, _bracket_expansions, _Request

_HALF = Fraction(1, 2)

# The nonzero entries {(row, column): value} of each generator's matrix,
# keyed by the label without its index.  A row or column is "A" or "B",
# the 0-based spatial indices of a label omega[A,B] or name[A], or an
# offset from d.  The block layouts, with omega the antisymmetric
# rotation block and spatial rows first, are
#   sch, (d+2)-square:  [omega, beta, gamma;  0, lambda, epsilon;  0, -kappa, -lambda]
#   cga, (d+3)-square:  [omega, -alpha/2, beta, gamma;  0, lambda, 2 epsilon, 0;
#                        0, -kappa/2, 0, epsilon;  0, 0, -kappa, -lambda]
# The sl(2) block of cga is fixed by bracket consistency with the vector
# fields: the opposite sign of the -kappa/2 entry breaks the commutator
# [expansion, time translation] exactly.
_MATRICES = {
    "sch": {
        "omega": {("B", "A"): 1, ("A", "B"): -1},
        "beta": {("A", 0): 1},
        "gamma": {("A", 1): 1},
        "kappa": {(1, 0): -1},
        "lambda": {(0, 0): 1, (1, 1): -1},
        "epsilon": {(0, 1): 1},
    },
    "cga": {
        "omega": {("B", "A"): 1, ("A", "B"): -1},
        "alpha": {("A", 0): -_HALF},
        "beta": {("A", 1): 1},
        "gamma": {("A", 2): 1},
        "kappa": {(1, 0): -_HALF, (2, 1): -1},
        "lambda": {(0, 0): 1, (2, 2): -1},
        "epsilon": {(0, 1): 2, (1, 2): 1},
    },
}


def _generator_matrix(kind: str, label: str, d: int) -> dict:
    """Sparse matrix {(row, column): value} of the generator of algebra
    kind ('sch' or 'cga') at dimension d with the given label."""
    name, _, index = label.rstrip("]").partition("[")
    spatial = dict(zip("AB", (int(i) - 1 for i in index.split(",")))) if index else {}

    def place(key):
        return spatial[key] if isinstance(key, str) else d + key

    return {(place(r), place(c)): Fraction(v) for (r, c), v in _MATRICES[kind][name].items()}


# ---------------------------------------------------------------------------
# verification on sparse matrices {(row, col): value}
# ---------------------------------------------------------------------------


def _commutator(a: dict, b: dict) -> dict:
    """ab - ba of two sparse matrices."""
    out: dict = {}
    for (i, k), u in a.items():
        for (l, j), v in b.items():
            if k == l:
                out[i, j] = out.get((i, j), 0) + u * v
            if j == i:
                out[l, k] = out.get((l, k), 0) - u * v
    return {key: v for key, v in out.items() if v}


def _combination(coeffs: dict, mats: list) -> dict:
    """sum_k coeffs[k] * mats[k] of sparse matrices."""
    out: dict = {}
    for k, c in coeffs.items():
        linalg._axpy(out, c, mats[k])
    return out


def verify_representation(kind: str, d: int) -> dict:
    """Exhaustive bracket-consistency and faithfulness report.

    For every basis pair, the commutator of the two matrices must equal
    sign * (matrix of the vector-field bracket) for one global sign.
    The field basis is factored once and every bracket is reduced
    against it.
    """
    if kind not in _MATRICES:
        raise ValueError("kind must be 'sch' or 'cga'")
    # the algebra is the solver's presentation at its default exponent
    named = FAMILIES[kind].named(_Request(kind, d))[1]
    labels = [label for label, _ in named]
    fields = [X for _, X in named]
    mats = [_generator_matrix(kind, label, d) for label in labels]

    faithful = linalg.Echelon(mats).rank == len(mats)

    sign = None
    mismatches = []
    for i, j, coeffs, remainder in _bracket_expansions(fields):
        if remainder:
            mismatches.append([labels[i], labels[j], "bracket leaves span"])
            continue
        target = _combination(coeffs, mats)
        comm = _commutator(mats[i], mats[j])
        if not target and not comm:
            continue
        if comm == target:
            pair_sign = 1
        elif comm == {key: -v for key, v in target.items()}:
            pair_sign = -1
        else:
            mismatches.append([labels[i], labels[j], "no sign matches"])
            continue
        if sign is None:
            sign = pair_sign
        elif sign != pair_sign:
            mismatches.append([labels[i], labels[j], "sign flips"])
    return {
        "rep": kind,
        "size": d + 3 if kind == "cga" else d + 2,
        "dim": len(mats),
        "sign": sign,
        "faithful": faithful,
        "mismatches": mismatches,
    }


def verdict(report: dict) -> bool:
    """True when a ``verify_representation`` report shows a faithful
    representation whose commutators match the brackets up to one global
    sign."""
    return report["faithful"] and not report["mismatches"] and report["sign"] in (1, -1)


# ---------------------------------------------------------------------------
# Levi-style decomposition checks
# ---------------------------------------------------------------------------


def levi_check(sc, radical: set, rotation_indices: set, sl2_indices: set) -> dict:
    """Checks that the designated radical is an abelian ideal and that the
    quotient splits as commuting rotation and sl(2)-type blocks with the
    expected structure constants.

    Reports each failure distinctly: 'not_an_ideal' and 'not_abelian'
    carry a witness pair; the quotient checks compare against the
    so(d) relations on the rotation block and the dilation-graded
    relations on the (expansion, dilation, time translation) block.
    """
    radical = set(radical)
    complement = [i for i in range(sc.n) if i not in radical]
    report = {"ideal": True, "abelian": True, "quotient": True, "failures": []}
    entries = [(i, j, k, v) for (i, j), row in sorted(sc.c.items()) for k, v in sorted(row.items())]

    for i, j, k, _ in entries:
        if i in radical and k not in radical:
            report["ideal"] = False
            report["failures"].append(["not_an_ideal", i, j, k])
    for i, j, k, _ in entries:
        if i in radical and j in radical:
            report["abelian"] = False
            report["failures"].append(["not_abelian", i, j, k])
    if not report["ideal"]:
        return report

    # quotient structure constants on the complement
    pos = {idx: a for a, idx in enumerate(complement)}
    q = {
        (pos[i], pos[j], pos[k]): v
        for i, j, k, v in entries
        if i in pos and j in pos and k in pos
    }
    rot = sorted(pos[i] for i in rotation_indices)
    sl2 = sorted(pos[i] for i in sl2_indices)

    # the two factors must commute in the quotient
    for i, j, k in q:
        if i in rot and j in sl2:
            report["quotient"] = False
            report["failures"].append(["factors_do_not_commute", i, j, k])
    # rotations close on rotations, sl2 closes on sl2
    for block, other in ((rot, sl2), (sl2, rot)):
        for i, j, k in q:
            if i in block and j in block and k in other:
                report["quotient"] = False
                report["failures"].append(["block_not_closed", i, j, k])
    # sl(2) grading: with basis (expansion K, dilation D, translation H),
    # ad(D) has eigenvalues (+c, 0, -c) and [K, H] is proportional to D.
    if len(sl2) != 3:
        report["quotient"] = False
        report["failures"].append(["sl2_block_size", len(sl2)])
        return report
    K, D, H = sl2
    checks = [
        q.get((D, K, K)) is not None,
        q.get((D, H, H)) is not None,
        q.get((K, H, D)) is not None,
        q.get((D, K, H)) is None,
        q.get((D, H, K)) is None,
        q.get((K, H, K)) is None,
        q.get((K, H, H)) is None,
    ]
    if not all(checks):
        report["quotient"] = False
        report["failures"].append(["sl2_relations", checks])
    else:
        lam_k = q[(D, K, K)]
        lam_h = q[(D, H, H)]
        if lam_k != -lam_h:
            report["quotient"] = False
            report["failures"].append(["sl2_grading", str(lam_k), str(lam_h)])
    return report
