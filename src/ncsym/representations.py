"""Finite-dimensional matrix forms of the two projective families.

The parameter-to-matrix maps below are verified (not assumed) to be
bracket-consistent: for every basis pair the matrix commutator must
equal the matrix of the vector-field bracket up to ONE global sign,
the same across all pairs.  The maps come out as anti-homomorphisms
(sign -1) for the bracket conventions used by the vector-field layer;
the verifier records whichever sign it finds and reports any pair
violating consistency.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .solver import _SLICES, _bracket_expansions, _check_dimension, _slice_named

_HALF = Fraction(1, 2)


def _zeros(n: int) -> list:
    return [[Fraction(0)] * n for _ in range(n)]


def _check_omega(d: int, omega) -> list:
    om = [[Fraction(v) for v in row] for row in omega]
    if len(om) != d or any(len(r) != d for r in om):
        raise ValueError(f"rotation block must be {d}x{d}")
    for A in range(d):
        for B in range(d):
            if om[A][B] != -om[B][A]:
                raise ValueError("rotation block must be antisymmetric")
    return om


def _check_vector(d: int, v, name: str) -> list:
    vec = [Fraction(x) for x in v]
    if len(vec) != d:
        raise ValueError(f"{name} must have length {d}")
    return vec


def rep_schrodinger(d: int, omega, beta, gamma, kappa, lam, eps) -> list:
    """(d+2)-square matrix of a generator with the given parameters:
    rows [omega, beta, gamma; 0, lam, eps; 0, -kappa, -lam]."""
    om = _check_omega(d, omega)
    be = _check_vector(d, beta, "beta")
    ga = _check_vector(d, gamma, "gamma")
    kappa, lam, eps = Fraction(kappa), Fraction(lam), Fraction(eps)
    n = d + 2
    Z = _zeros(n)
    for A in range(d):
        for B in range(d):
            Z[A][B] = om[A][B]
        Z[A][d] = be[A]
        Z[A][d + 1] = ga[A]
    Z[d][d] = lam
    Z[d][d + 1] = eps
    Z[d + 1][d] = -kappa
    Z[d + 1][d + 1] = -lam
    return Z


def rep_cga(d: int, omega, alpha, beta, gamma, kappa, lam, eps) -> list:
    """(d+3)-square matrix of a generator with the given parameters.

    The lower-right 3x3 block is the sl(2) triple; its entries are fixed
    by requiring bracket consistency with the vector-field basis, which
    pins the kappa entry in the beta-row at -1/2 (the opposite choice
    breaks the commutator [expansion, time translation] exactly).
    """
    om = _check_omega(d, omega)
    al = _check_vector(d, alpha, "alpha")
    be = _check_vector(d, beta, "beta")
    ga = _check_vector(d, gamma, "gamma")
    kappa, lam, eps = Fraction(kappa), Fraction(lam), Fraction(eps)
    n = d + 3
    Z = _zeros(n)
    for A in range(d):
        for B in range(d):
            Z[A][B] = om[A][B]
        Z[A][d] = -_HALF * al[A]
        Z[A][d + 1] = be[A]
        Z[A][d + 2] = ga[A]
    Z[d][d] = lam
    Z[d][d + 1] = 2 * eps
    Z[d + 1][d] = -_HALF * kappa
    Z[d + 1][d + 2] = eps
    Z[d + 2][d + 1] = -kappa
    Z[d + 2][d + 2] = -lam
    return Z


# ---------------------------------------------------------------------------
# verification on sparse matrices {(row, col): value}
# ---------------------------------------------------------------------------


# The matrix builder of each finite algebra and its vector parameters; the
# algebra is the solver's slice at its own exponent.
_REPS = {
    "sch": (rep_schrodinger, ("beta", "gamma")),
    "cga": (rep_cga, ("alpha", "beta", "gamma")),
}

# keyword of each scalar parameter whose generator label differs from it
_KEYWORDS = {"lambda": "lam", "epsilon": "eps"}


def _unit_parameters(label: str, d: int, vectors: tuple) -> dict:
    """Builder keywords with only the parameter of one generator set to 1:
    omega[A,B] sets the rotation block of x^A d_B - x^B d_A, a label
    name[A] entry A of the vector parameter name, any other label its
    scalar parameter."""
    params = {key: [0] * d for key in vectors}
    params.update(omega=[[0] * d for _ in range(d)], kappa=0, lam=0, eps=0)
    name, _, index = label.rstrip("]").partition("[")
    if name == "omega":
        A, B = (int(i) - 1 for i in index.split(","))
        params["omega"][B][A], params["omega"][A][B] = 1, -1
    elif index:
        params[name][int(index) - 1] = 1
    else:
        params[_KEYWORDS.get(name, name)] = 1
    return params


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
    _check_dimension(d)
    if kind not in _REPS:
        raise ValueError("kind must be 'sch' or 'cga'")
    build, vectors = _REPS[kind]
    labels, fields, mats = [], [], []
    for label, X in _slice_named(kind, d, _SLICES[kind][1])[1]:
        Z = build(d, **_unit_parameters(label, d, vectors))
        labels.append(label)
        fields.append(X)
        mats.append({(r, c): v for r, row in enumerate(Z) for c, v in enumerate(row) if v})

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
        "size": len(Z),
        "dim": len(mats),
        "sign": sign,
        "faithful": faithful,
        "mismatches": mismatches,
    }


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
    n = sc.n
    radical = set(radical)
    complement = [i for i in range(n) if i not in radical]
    report = {"ideal": True, "abelian": True, "quotient": True, "failures": []}

    for i in radical:
        for j in range(n):
            for k in complement:
                if sc.c[i][j][k]:
                    report["ideal"] = False
                    report["failures"].append(["not_an_ideal", i, j, k])
    for i in radical:
        for j in radical:
            for k in range(n):
                if sc.c[i][j][k]:
                    report["abelian"] = False
                    report["failures"].append(["not_abelian", i, j, k])
    if not report["ideal"]:
        return report

    # quotient structure constants on the complement
    pos = {idx: a for a, idx in enumerate(complement)}
    q = {}
    for i in complement:
        for j in complement:
            for k in complement:
                v = sc.c[i][j][k]
                if v:
                    q[(pos[i], pos[j], pos[k])] = v
    rot = sorted(pos[i] for i in rotation_indices)
    sl2 = sorted(pos[i] for i in sl2_indices)

    # the two factors must commute in the quotient
    for i in rot:
        for j in sl2:
            for k in range(len(complement)):
                if q.get((i, j, k)):
                    report["quotient"] = False
                    report["failures"].append(["factors_do_not_commute", i, j, k])
    # rotations close on rotations, sl2 closes on sl2
    for block, other in ((rot, sl2), (sl2, rot)):
        for i in block:
            for j in block:
                for k in other:
                    if q.get((i, j, k)):
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
