import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncsym import representations as reps, solver
from ncsym.cli import main
from ncsym.solver import StructureConstants, solve, structure_constants


def sparse(Z) -> dict:
    return {(r, c): v for r, row in enumerate(Z) for c, v in enumerate(row) if v}


def test_unknown_kind_is_refused():
    with pytest.raises(ValueError, match="kind must be 'sch' or 'cga'"):
        reps.verify_representation("gal", 3)


def test_rep_sch_rotation_block():
    # omega[1,2] has the rotation block [[0, -1, 0], [1, 0, 0], [0, 0, 0]]
    # and nothing outside it
    assert reps._generator_matrix("sch", "omega[1,2]", 3) == {(0, 1): -1, (1, 0): 1}


def test_rep_sch_commutator_of_rotations_matches_so3():
    Z12, Z13, Z23 = (
        reps._generator_matrix("sch", f"omega[{ab}]", 3) for ab in ("1,2", "1,3", "2,3")
    )
    # [Z(omega12), Z(omega13)] = Z(omega23)
    assert reps._commutator(Z12, Z13) == Z23


def test_rep_cga_alpha_and_kappa_entries():
    # the alpha column carries -alpha/2; kappa enters the sl(2) block as
    # -kappa/2 at (d+1, d) and -kappa at (d+2, d+1)
    assert reps._generator_matrix("cga", "alpha[1]", 3) == {(0, 3): Fraction(-1, 2)}
    assert reps._generator_matrix("cga", "kappa", 3) == {(4, 3): Fraction(-1, 2), (5, 4): -1}


# dense oracle for the sparse matrix arithmetic of the verifier
def dense_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def dense_commutator(a, b):
    ab, ba = dense_mul(a, b), dense_mul(b, a)
    return [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(ab, ba)]


def dense_combination(coeffs, mats, n):
    out = [[Fraction(0)] * n for _ in range(n)]
    for k, c in coeffs.items():
        out = [[x + c * y for x, y in zip(r1, r2)] for r1, r2 in zip(out, mats[k])]
    return out


ENTRIES = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)


@st.composite
def matrix_sets(draw):
    n = draw(st.integers(1, 5))
    mats = draw(st.lists(
        st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n),
        min_size=2, max_size=4,
    ))
    coeffs = draw(st.dictionaries(st.integers(0, len(mats) - 1), ENTRIES))
    return n, mats, coeffs


@settings(max_examples=80, deadline=None)
@given(matrix_sets())
def test_sparse_commutator_and_target_match_dense(case):
    n, mats, coeffs = case
    a, b = mats[0], mats[1]
    assert reps._commutator(sparse(a), sparse(b)) == sparse(dense_commutator(a, b))
    target = reps._combination(coeffs, [sparse(m) for m in mats])
    assert target == sparse(dense_combination(coeffs, mats, n))


def test_rep_sch_sl2_block_closes_like_vector_fields():
    report = reps.verify_representation("sch", 3)
    assert report["mismatches"] == []
    assert report["sign"] in (1, -1)


def test_rep_cga_so21_block():
    # the lower 3x3 block of the (kappa, lam, eps) triple closes with the
    # structure constants of the corresponding vector fields
    report = reps.verify_representation("cga", 3)
    assert report["mismatches"] == []
    assert report["faithful"]


def test_rep_consistency_full_pairwise():
    for kind, d in (("sch", 3), ("cga", 3), ("sch", 2), ("cga", 2)):
        report = reps.verify_representation(kind, d)
        assert report["faithful"], (kind, d)
        assert report["mismatches"] == [], (kind, d)
        assert report["sign"] == -1, (kind, d)  # anti-homomorphism throughout


def test_sign_flipped_cga_entry_is_reported(monkeypatch):
    kappa = reps._MATRICES["cga"]["kappa"]
    monkeypatch.setitem(reps._MATRICES["cga"], "kappa", {**kappa, (1, 0): -kappa[1, 0]})
    report = reps.verify_representation("cga", 3)
    assert report["sign"] == -1
    assert report["faithful"]
    assert report["mismatches"] == [[f"beta[{A}]", "kappa", "sign flips"] for A in (1, 2, 3)] + [
        ["kappa", "epsilon", "no sign matches"]
    ]


def test_bracket_leaving_the_span_is_reported(monkeypatch, tmp_path):
    # without the dilation, [kappa, epsilon] = lambda leaves the span
    row = solver.FAMILIES["sch"]
    real = row.named

    def without_lambda(q):
        family, named = real(q)
        return family, [(label, X) for label, X in named if label != "lambda"]

    monkeypatch.setattr(row, "named", without_lambda)
    report = reps.verify_representation("sch", 2)
    assert report["mismatches"] == [["kappa", "epsilon", "bracket leaves span"]]
    out = tmp_path / "r.json"
    assert main(["rep-check", "--rep", "sch", "--d", "2", "--out", str(out)]) == 2
    assert json.loads(out.read_text())["mismatches"] == report["mismatches"]


def test_levi_sch():
    sch = solve("sch", 3)
    sc = structure_constants(sch)
    rot = {i for i, l in enumerate(sch.labels) if l.startswith("omega")}
    radical = {i for i, l in enumerate(sch.labels) if l.startswith(("beta", "gamma"))}
    sl2 = {sch.labels.index("kappa"), sch.labels.index("lambda"), sch.labels.index("epsilon")}
    assert len(radical) == 6
    report = reps.levi_check(sc, radical, rot, sl2)
    assert report["ideal"] and report["abelian"] and report["quotient"]
    assert report["failures"] == []


def test_levi_cga():
    cga = solve("cga", 3)
    sc = structure_constants(cga)
    rot = {i for i, l in enumerate(cga.labels) if l.startswith("omega")}
    radical = {i for i, l in enumerate(cga.labels) if l.startswith(("alpha", "beta", "gamma"))}
    sl2 = {cga.labels.index("kappa"), cga.labels.index("lambda"), cga.labels.index("epsilon")}
    assert len(radical) == 9
    report = reps.levi_check(sc, radical, rot, sl2)
    assert report["ideal"] and report["abelian"] and report["quotient"]
    assert report["failures"] == []


def test_levi_rejects_rotation_in_radical():
    sch = solve("sch", 3)
    sc = structure_constants(sch)
    rot = {1, 2}
    radical = {i for i, l in enumerate(sch.labels) if l.startswith(("beta", "gamma"))}
    radical.add(0)  # omega[1,2] wrongly included
    sl2 = {sch.labels.index("kappa"), sch.labels.index("lambda"), sch.labels.index("epsilon")}
    report = reps.levi_check(sc, radical, rot, sl2)
    assert not report["ideal"]
    assert any(f[0] == "not_an_ideal" for f in report["failures"])


def so3_plus_sl2(changes=()) -> StructureConstants:
    """so(3) on indices 0-2 and sl(2) on 3-5 = (K, D, H), with each
    (i, j, k, v) of changes setting the X_k coefficient of [X_i, X_j] to v."""
    brackets = [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                (4, 3, 3, 2), (4, 5, 5, -2), (3, 5, 4, -1), *changes]
    c: dict = {}
    for i, j, k, v in brackets:
        c.setdefault((i, j), {})[k] = Fraction(v)
        c.setdefault((j, i), {})[k] = Fraction(-v)
    return StructureConstants(6, c)


@pytest.mark.parametrize("changes, sl2, failures", [
    ([], {3, 4, 5}, []),
    # [X_0, K] = K: a rotation acts on the sl(2) factor
    ([(0, 3, 3, 1)], {3, 4, 5}, [["factors_do_not_commute", 0, 3, 3]]),
    # [K, H] = -D + X_0: the sl(2) block leaks into the rotations
    ([(3, 5, 0, 1)], {3, 4, 5}, [["block_not_closed", 3, 5, 0], ["block_not_closed", 5, 3, 0]]),
    ([], {3, 4}, [["sl2_block_size", 2]]),
    # [K, H] = -D + H
    ([(3, 5, 5, 1)], {3, 4, 5}, [["sl2_relations", [True] * 6 + [False]]]),
    # [D, H] = -3H: ad(D) does not grade K and H oppositely
    ([(4, 5, 5, -3)], {3, 4, 5}, [["sl2_grading", "2", "-3"]]),
])
def test_levi_reports_each_quotient_failure(changes, sl2, failures):
    report = reps.levi_check(so3_plus_sl2(changes), set(), {0, 1, 2}, sl2)
    assert report == {"ideal": True, "abelian": True, "quotient": not failures, "failures": failures}
