import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from ncsym import fluids, integrate, mechanics, solver
from ncsym.cli import _FAMILIES, main
from ncsym.geometry import newtonian_connection
from ncsym.poly import Poly
from ncsym.solver import MAX_D, MAX_N, MAX_TIME_DEGREE


def run_cli(args):
    return main(list(args))


def test_solve_sch_writes_report(tmp_path):
    out = tmp_path / "a.json"
    code = run_cli(["solve", "--family", "sch", "--d", "3", "--z", "2", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["dim"] == 12
    assert report["z"] == "2"
    assert len(report["generators"]) == 12
    assert report["structure_constants"]


def test_solve_cmil_c1_dimension(tmp_path):
    out = tmp_path / "b.json"
    code = run_cli(["solve", "--family", "cmil", "--d", "3", "--branch", "c1", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["dim"] == 16


def test_output_is_byte_stable(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for out in (out1, out2):
        assert run_cli(["solve", "--family", "cga", "--d", "3", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_z_parsing_rejects_floats():
    assert run_cli(["solve", "--family", "sch", "--d", "3", "--z", "2.0"]) == 1


def test_z_inf_accepted(tmp_path):
    out = tmp_path / "inf.json"
    code = run_cli(["solve", "--family", "cgal-z", "--d", "2", "--z", "inf",
                    "--deg-t", "1", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["z"] == "inf"


def test_unknown_flag_rejected():
    assert run_cli(["solve", "--family", "sch", "--bogus", "1"]) == 1


def test_bracket_table(tmp_path):
    out = tmp_path / "sc.json"
    code = run_cli(["bracket-table", "--family", "alt", "--d", "2", "--N", "2", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["antisymmetric"] and payload["jacobi"]
    assert payload["dim"] == 10


def test_bracket_table_exits_2_when_jacobi_fails(monkeypatch, capsys):
    from ncsym import solver

    # [X_0, X_1] = X_2, [X_0, X_2] = X_0: antisymmetric, but not a Lie algebra
    broken = solver.StructureConstants(3, {
        (0, 1): {2: Fraction(1)}, (1, 0): {2: Fraction(-1)},
        (0, 2): {0: Fraction(1)}, (2, 0): {0: Fraction(-1)},
    })
    monkeypatch.setattr(solver, "structure_constants", lambda basis: broken)
    assert run_cli(["bracket-table", "--family", "gal", "--d", "2"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["antisymmetric"] and not payload["jacobi"]
    assert payload["structure_constants"] == [
        [0, 1, 2, "1"], [0, 2, 0, "1"], [1, 0, 2, "-1"], [2, 0, 0, "-1"]
    ]


def test_rep_check_exit_codes(tmp_path):
    assert run_cli(["rep-check", "--rep", "sch", "--d", "3", "--out", str(tmp_path / "r.json")]) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["faithful"] and report["sign"] == -1


def test_geodesic_csv(tmp_path):
    out = tmp_path / "traj.csv"
    code = run_cli(["geodesic", "--model", "harmonic", "--steps", "50", "--h", "0.001",
                    "--out", str(out)])
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0].startswith("tau,")
    assert "H,D,K" in rows[0]
    assert len(rows) == 52  # header + initial + 50 steps


def test_geodesic_csv_matches_per_row_charges(tmp_path):
    # the CSV computes the charges by column; each row must format exactly
    # as one MassiveState + massive_charges call on that trajectory row
    out = tmp_path / "traj.csv"
    h, steps = 1e-3, 200
    assert run_cli(["geodesic", "--model", "harmonic", "--steps", str(steps), "--h", str(h),
                    "--out", str(out)]) == 0
    V = Poly.zero(3)
    for A in range(1, 4):
        V = V + Poly.x(3, A) * Poly.x(3, A) * Fraction(1, 2)
    conn = newtonian_connection(3, V).connection
    res = integrate.integrate_geodesic(conn, [0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.5, 0.0], h, steps)
    traj = np.frombuffer(res["trajectory"]).reshape(-1, 8)
    expected = []
    for i, row in enumerate(traj):
        state = mechanics.MassiveState(row[0], row[1:4], row[5:8], [0.0, 0.0, 1.0])
        ch = mechanics.massive_charges(state, 1.0, 0.0)
        cells = (
            [i * h] + list(row) + [ch["H"], ch["D"], ch["K"]]
            + list(ch["P"]) + list(ch["G"]) + list(ch["J"])
        )
        expected.append(",".join(f"{v:.17g}" for v in cells))
    assert out.read_text().splitlines()[1:] == expected


def test_noether_commands():
    assert run_cli(["noether", "--model", "massive"]) == 0
    assert run_cli(["noether", "--model", "photon"]) == 0


def test_fluid_and_em_checks(tmp_path):
    assert run_cli(["fluid-check", "--out", str(tmp_path / "f.json")]) == 0
    assert run_cli(["fluid-check", "--negative-control"]) == 0
    assert run_cli(["em-check", "--out", str(tmp_path / "e.json")]) == 0
    assert run_cli(["em-check", "--negative-control"]) == 0


def test_em_check_exits_2_on_a_failing_pair(monkeypatch, tmp_path):
    from ncsym import em, solver

    lib = em.sourcefree_library()
    c1 = solver._solve("cmil", 3)
    label, idx = "kappa", 3
    kappa = c1.generators[c1.labels.index(label)]
    real = em.failing_fields

    def one_pair_fails(X, fields, nc):
        failing = real(X, fields, nc)
        return sorted({*failing, idx}) if fields is lib and X == kappa else failing

    monkeypatch.setattr(em, "sourcefree_library", lambda: lib)
    monkeypatch.setattr(em, "failing_fields", one_pair_fails)
    out = tmp_path / "e.json"
    assert run_cli(["em-check", "--out", str(out)]) == 2
    assert json.loads(out.read_text())["failures"] == [[label, idx]]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ncsym.cli", "solve", "--family", "gal", "--d", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dim"] == 10


@pytest.mark.parametrize(
    "args",
    [
        ["solve", "--family", "gal", "--d", "0"],
        ["solve", "--family", "cnc", "--deg-t", "-1"],
        ["solve", "--family", "cgal-z", "--z", "1", "--deg-t", "-1"],
        ["rep-check", "--rep", "sch", "--d", "0"],
        ["rep-check", "--rep", "cga", "--d", "1"],
        ["geodesic", "--h", "nan"],
        ["geodesic", "--h", "inf"],
        ["geodesic", "--steps", "-3"],
        ["solve", "--family", "alt", "--N", "0"],
        ["solve", "--family", "gal", "--d", str(MAX_D + 1)],
        ["solve", "--family", "sch", "--d", str(MAX_D + 1)],
        ["solve", "--family", "cmil", "--d", str(MAX_D + 1)],
        ["solve", "--family", "cgal", "--d", str(MAX_D + 1)],
        ["solve", "--family", "cnc", "--d", str(MAX_D + 1)],
        ["solve", "--family", "alt", "--d", str(MAX_D + 1)],
        ["rep-check", "--rep", "cga", "--d", str(MAX_D + 1)],
        ["solve", "--family", "cgal", "--deg-t", str(MAX_TIME_DEGREE + 1)],
        ["solve", "--family", "cgal-z", "--z", "1", "--deg-t", str(MAX_TIME_DEGREE + 1)],
        ["solve", "--family", "cnc", "--deg-t", str(MAX_TIME_DEGREE + 1)],
        ["solve", "--family", "alt", "--N", str(MAX_N + 1)],
        ["geodesic", "--steps", str(integrate.MAX_STEPS + 1)],
        ["solve", "--family", "sch", "--z", "1/0"],
        ["noether", "--model", "massive", "--seed", "-1"],
        ["fluid-check", "--seed", "-5"],
        ["solve", "--family", "gal", "--d", "2", "--z", "5"],
        ["solve", "--family", "sch-expanded", "--d", "2", "--z", "5"],
        ["solve", "--family", "cgal", "--d", "2", "--z", "5"],
        ["solve", "--family", "cnc", "--d", "2", "--z", "5"],
        ["solve", "--family", "cmil", "--d", "2", "--z", "5"],
        ["solve", "--family", "alt", "--d", "2", "--z", "5"],
        ["solve", "--family", "gal", "--d", "2", "--N", "2"],
        ["bracket-table", "--family", "sch", "--d", "2", "--N", "2"],
        ["solve", "--family", "cga", "--d", "2", "--branch", "c1"],
        ["bracket-table", "--family", "alt", "--d", "2", "--branch", "c2"],
        ["solve", "--family", "sch", "--d", "2", "--deg-t", "3"],
        ["bracket-table", "--family", "gal", "--d", "2", "--z", "2"],
        ["solve", "--family", "sch", "--d", "2", "--z", ""],
        ["geodesic", "--model", "harmonic", "--steps", "10", "--h", "1e300"],
        ["solve", "--family", "cga", "--d", "2", "--z", "\u0661"],  # ARABIC-INDIC DIGIT ONE
    ],
)
def test_bad_domain_input_is_a_domain_error(args, capsys):
    assert run_cli(args) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_selftest_passes_every_check(capsys):
    assert run_cli(["selftest"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10
    assert all(line.startswith("PASS  ") for line in lines)


def _self_similar_with_density_exponent_d_minus_1(real):
    return lambda a, rho0, d: real(a, rho0, d - 1)


def _rk4_with_scaled_force(real):
    def run(rhs, y0, h, steps):
        def scaled(t, y):
            dy = rhs(t, y)
            return [*dy[:3], *(1.5 * a for a in dy[3:])]

        return real(scaled, y0, h, steps)

    return run


@pytest.mark.parametrize(
    "module, name, broken, label",
    [
        (fluids, "self_similar_free", _self_similar_with_density_exponent_d_minus_1,
         "self-similar fluid residuals < 1e-10"),
        (integrate, "rk4", _rk4_with_scaled_force, "inverse-square dilation charge drift < 1e-6"),
    ],
)
def test_selftest_numeric_rows_can_fail(module, name, broken, label, monkeypatch, capsys):
    monkeypatch.setattr(module, name, broken(getattr(module, name)))
    assert run_cli(["selftest"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10
    assert [line for line in lines if not line.startswith("PASS  ")] == [f"FAIL  {label}"]


def test_unread_family_option_error_names_the_flag(capsys):
    assert run_cli(["solve", "--family", "gal", "--d", "2", "--branch", "c2"]) == 1
    assert capsys.readouterr().err == "error: --branch is not an option of --family gal\n"


def test_cgal_z_without_z_is_rejected(capsys):
    assert run_cli(["solve", "--family", "cgal-z", "--d", "2"]) == 1
    assert capsys.readouterr() == ("", "error: --z required for cgal-z\n")


# The --family rows of the solver's table, and the options of solve and
# bracket-table (bracket-table has no --deg-t) with a value each accepts.
FAMILY_ROWS = {family: row for family, row in solver.FAMILIES.items() if row.named is not None}
OPTIONS = {"z": "2", "deg_t": "1", "branch": "c2", "N": "2"}
SUBCOMMANDS = {"solve": ("z", "deg_t", "branch", "N"), "bracket-table": ("z", "branch", "N")}


def test_cli_families_mirror_the_solver_table():
    # cli keeps its own copy so that --help and usage errors load no solver
    assert list(_FAMILIES.items()) == [
        (family, (tuple(row.options), row.closed)) for family, row in FAMILY_ROWS.items()
    ]


def _pairs(keep) -> list:
    """(subcommand, family, option) for each option of a subcommand that
    keep(row, option) selects, over the families the subcommand offers."""
    return [
        (command, family, option)
        for command, options in SUBCOMMANDS.items()
        for family, row in FAMILY_ROWS.items()
        if command == "solve" or row.closed
        for option in options
        if keep(row, option)
    ]


@pytest.mark.parametrize("command, family, option", _pairs(lambda row, o: o not in row.options))
def test_every_option_a_family_does_not_read_is_rejected(command, family, option, capsys):
    flag = "--" + option.replace("_", "-")
    assert run_cli([command, "--family", family, "--d", "2", flag, OPTIONS[option]]) == 1
    assert capsys.readouterr() == ("", f"error: {flag} is not an option of --family {family}\n")


@pytest.mark.parametrize(
    "command, family, option", _pairs(lambda row, o: row.options.get(o) is not None))
def test_an_omitted_option_takes_the_table_default(command, family, option, capsys):
    row = FAMILY_ROWS[family]
    # an option without a default (cgal-z's --z) is given on both runs
    required = [a for o, default in row.options.items() if default is None for a in (f"--{o}", "1")]
    base = [command, "--family", family, "--d", "2"] + required
    assert run_cli(base) == 0
    omitted = capsys.readouterr().out
    flag = "--" + option.replace("_", "-")
    assert run_cli(base + [flag, str(row.options[option])]) == 0
    assert capsys.readouterr().out == omitted


# options a subcommand never reads are not in its parser: argparse rejects
# them with its usage message
@pytest.mark.parametrize(
    "args",
    [
        ["bracket-table", "--family", "gal", "--d", "2", "--deg-t", "5"],
        ["selftest", "--out", "selftest.json"],
        ["solve", "--family", "gal", "--d", "2", "--seed", "3"],
        ["bracket-table", "--family", "gal", "--d", "2", "--seed", "3"],
        ["rep-check", "--rep", "sch", "--d", "2", "--seed", "3"],
        ["em-check", "--seed", "3"],
        ["selftest", "--seed", "3"],
        ["geodesic", "--steps", "1", "--seed", "3"],
    ],
)
def test_option_the_subcommand_does_not_read_is_rejected(args, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli(args) == 1
    assert f"unrecognized arguments: {args[-2]} {args[-1]}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args", [["noether", "--model", "massive", "--seed", "-1"],
                                  ["fluid-check", "--seed", "-5"]])
def test_negative_seed_error_names_the_flag(args, capsys):
    assert run_cli(args) == 1
    assert "--seed" in capsys.readouterr().err


# Modules loaded by one fresh CLI process: importing more than a subcommand
# uses costs every invocation its start-up time.
NUMERIC = ("numpy", "ncsym.fluids", "ncsym.mechanics")
EXACT = ("ncsym.solver", "ncsym.linalg")


def _loaded_modules(args):
    script = (
        "import sys\n"
        "from ncsym.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print()\n"
        "print(' '.join(sorted(sys.modules)))\n"
        "raise SystemExit(code)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True)
    return proc.returncode, set(proc.stdout.splitlines()[-1].split())


@pytest.mark.parametrize(
    "args, absent",
    [
        (["solve", "--family", "gal", "--d", "2"], NUMERIC),
        (["bracket-table", "--family", "sch", "--d", "2"], NUMERIC),
        (["rep-check", "--rep", "sch", "--d", "2"], NUMERIC),
        (["em-check"], NUMERIC),
        (["fluid-check"], EXACT),
        (["noether", "--model", "photon"], EXACT),
        (["geodesic", "--steps", "10"], EXACT),
        # the exact commands define no dataclass, only an ether passed in
        # needs geometry, and noether's Connection is an annotation only
        (["solve", "--family", "gal", "--d", "2"], ("dataclasses", "ncsym.geometry", "csv")),
        (["solve", "--family", "cmil", "--d", "2"], ("dataclasses", "ncsym.geometry", "csv")),
        (["bracket-table", "--family", "sch", "--d", "2"], ("dataclasses", "csv")),
        (["rep-check", "--rep", "sch", "--d", "2"], ("dataclasses", "ncsym.geometry", "csv")),
        (["em-check"], ("dataclasses", "csv")),
        (["noether", "--model", "photon"], ("ncsym.lie", "csv")),
        (["noether", "--model", "massive"], ("ncsym.lie", "csv")),
        (["fluid-check"], ("csv",)),
        (["geodesic", "--steps", "10", "--out", os.devnull], ("csv",)),
        (["selftest"], ("csv",)),
        (["bracket-table", "--family", "cga", "--d", "2"], ("dataclasses", "ncsym.geometry", "csv")),
        # the integrator is stdlib-only: numpy arrays pay off only for --out
        (["geodesic", "--steps", "10"], ("numpy", "ncsym.mechanics", "dataclasses")),
        # selftest prints no number: its runs and samples need no numpy
        (["selftest"], ("numpy", "ncsym.mechanics", "dataclasses")),
    ],
)
def test_subcommand_loads_only_the_modules_it_uses(args, absent):
    code, loaded = _loaded_modules(args)
    assert code == 0
    assert not loaded & set(absent)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("blas, threads", [(None, "1"), ("2", "2")])
def test_cli_runs_one_blas_thread_unless_set(blas, threads):
    # numpy's OpenBLAS starts a worker per core at import; the CLI asks for
    # none before any subcommand imports numpy, and keeps a value already set
    script = (
        "import os\n"
        "from ncsym.cli import main\n"
        "code = main(['noether', '--model', 'photon'])\n"
        "print()\n"
        "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        "raise SystemExit(code)\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if blas is not None:
        env["OPENBLAS_NUM_THREADS"] = blas
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    tasks, value = proc.stdout.splitlines()[-1].split()
    if blas is None:
        assert tasks == "1"
    assert value == threads


@pytest.mark.parametrize("args, expected", [(["--help"], 0), (["solve", "--family", "nope"], 1)])
def test_help_and_usage_errors_load_no_other_ncsym_module(args, expected):
    code, loaded = _loaded_modules(args)
    assert code == expected
    assert not loaded & set(NUMERIC)
    assert {m for m in loaded if m.startswith("ncsym.")} == {"ncsym.cli"}
