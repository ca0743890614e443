"""ncsym benchmark: closed-loop CLI workloads with independent output checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an ncsym source tree; nothing needs installing.
One client runs one ``ncsym`` invocation at a time, each in a fresh
``python3 -m ncsym.cli`` process with ``NCSYM_THREADS`` removed from its
environment, and starts the next only when the previous one has ended.
A pass runs the workload's command list once, in an order drawn from
the seed; passes repeat until the next one would overrun ``--seconds``
(at least one runs).  Every output is checked independently
(``checks.py``); a wrong exit code or a failed check is a failed
invocation.

``--trace 0`` first times ``ncsym --help`` start-ups (``setup_s``), then
reports the end-to-end metrics.  ``--trace 1`` alternates an untraced
pass with the same pass run under ``traced_cli.py`` and reports the
per-layer metrics.  The last stdout line is the result object; the line
before it is the full record (machine, per-command times, output
digests, check-of-checks, trace fidelity).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from functools import partial
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
CSV_OUT = "{work}/traj.csv"
SETUP_STARTS = 15
RUN_LIMIT_S = 170.0  # every run must end within 180 s
BASELINE_DIGESTS = BENCH / "baseline" / "digests.json"


class Command:
    def __init__(self, argv: list[str], check, csv: bool = False):
        self.argv, self.check, self.csv = argv, check, csv
        self.key = " ".join(argv)


def _solve(family: str, d: int, *, N: int = 1, deg_t: int = 0) -> Command:
    argv = ["solve", "--family", family, "--d", str(d)]
    argv += ["--N", str(N)] if family == "alt" else []
    argv += ["--deg-t", str(deg_t)] if family in ("cgal", "cnc") else []
    dim = checks.algebra_dim(family, d, N=N, deg_t=deg_t)
    return Command(argv, partial(checks.check_algebra, dim=dim, rows=family not in ("cgal", "cnc")))


def _table(family: str, d: int, *, branch: str | None = None, N: int = 1) -> Command:
    argv = ["bracket-table", "--family", family, "--d", str(d)]
    argv += ["--branch", branch] if branch else []
    argv += ["--N", str(N)] if family == "alt" else []
    dim = checks.algebra_dim(f"{family}-{branch}" if branch else family, d, N=N)
    return Command(argv, partial(checks.check_algebra, dim=dim, rows=True, table=True))


def _geodesic(model: str, steps: int, csv: bool = False) -> Command:
    argv = ["geodesic", "--model", model, "--steps", str(steps)]
    argv += ["--out", CSV_OUT] if csv else []
    return Command(argv, partial(checks.check_geodesic, model=model, steps=steps, h=1e-3), csv)


def workload(name: str, seed: int) -> list[Command]:
    seed_arg = ["--seed", str(seed % 2**32)]
    if name == "solve-large":
        # Few tall sparse nullspaces (up to 1358 x 424) and span-equality proofs: linalg-bound.
        return [
            _solve("sch-expanded", 5), _solve("cga", 4), _solve("cgal", 4, deg_t=2),
            _solve("gal", 4), _solve("alt", 4, N=2), _solve("cnc", 4, deg_t=1),
        ]
    if name == "certify-small":
        # Many tiny in_span reductions against one basis, plus poly/lie/rep/em work.
        return [
            _table("sch", 3), _table("cmil", 3, branch="c1"), _table("cmil", 3, branch="c2"),
            _table("cga", 3), _table("alt", 3, N=3),
            Command(["rep-check", "--rep", "sch", "--d", "3"], partial(checks.check_rep, rep="sch", d=3)),
            Command(["rep-check", "--rep", "cga", "--d", "3"], partial(checks.check_rep, rep="cga", d=3)),
            Command(["em-check"], checks.check_em),
            Command(["selftest"], checks.check_selftest),
        ]
    if name == "dynamics":
        # Numeric layer only: RK4, Poly.evaluate, numpy jets, CSV writing; no exact linear algebra.
        return [
            _geodesic("harmonic", 20000), _geodesic("free", 20000), _geodesic("harmonic", 5000, csv=True),
            Command(["noether", "--model", "massive"] + seed_arg, partial(checks.check_noether, model="massive")),
            Command(["noether", "--model", "photon"] + seed_arg, partial(checks.check_noether, model="photon")),
            Command(["fluid-check"] + seed_arg, checks.check_fluid),
            Command(["fluid-check", "--negative-control"] + seed_arg, checks.check_fluid),
        ]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("solve-large", "certify-small", "dynamics")


class Runner:
    """Runs invocations one at a time and keeps what they produced."""

    def __init__(self, started: float):
        self.started = started
        self.env = {k: v for k, v in os.environ.items() if k != "NCSYM_THREADS"}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.invocations: list[dict] = []
        self.samples: dict[str, tuple] = {}  # command -> (check, stdout, csv) of a passing output

    def spawn(self, argv: list[str]) -> dict:
        """Run one child to completion; wall, CPU and peak RSS from its own rusage."""
        out, err = WORK / "stdout", WORK / "stderr"
        limit = max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.started))
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fo, stderr=fe, stdin=subprocess.DEVNULL,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "rc": proc.returncode, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "stdout": out.read_bytes(),
            "stderr": err.read_bytes()[-400:].decode("utf-8", "replace"),
            "timed_out": wall >= limit,
        }

    def invoke(self, cmd: Command, trace_path: Path | None = None) -> dict:
        argv = [a.format(work=WORK) for a in cmd.argv]
        prefix = ([sys.executable, str(BENCH / "traced_cli.py"), str(trace_path)] if trace_path
                  else [sys.executable, "-m", "ncsym.cli"])
        run = self.spawn(prefix + argv)
        text = run["stdout"].decode("utf-8", "replace")
        csv_bytes = None
        if cmd.csv:
            csv_path = Path(CSV_OUT.format(work=WORK))
            csv_bytes = csv_path.read_bytes() if csv_path.exists() else b""
            csv_path.unlink(missing_ok=True)
        csv_text = None if csv_bytes is None else csv_bytes.decode("utf-8", "replace")
        problems = [] if run["rc"] == 0 else [f"exit code {run['rc']}, expected 0: {run['stderr']}"]
        if run["timed_out"]:
            problems.append("killed at the run's time limit")
        problems += cmd.check(text, csv_text)
        if not problems:
            self.samples.setdefault(cmd.key, (cmd.check, text, csv_text))
        record = {
            "key": cmd.key, "traced": trace_path is not None, "wall_s": run["wall_s"],
            "cpu_s": run["cpu_s"], "rss_mb": run["rss_mb"], "problems": problems,
            "stdout_sha256": hashlib.sha256(run["stdout"]).hexdigest(),
            "csv_sha256": None if csv_bytes is None else hashlib.sha256(csv_bytes).hexdigest(),
        }
        self.invocations.append(record)
        return record

    def run_pass(self, order: list[Command], traced: bool) -> dict:
        """One pass; its wall time is the invocations' own, without the checks between them."""
        wall = cpu = 0.0
        traces = []
        for i, cmd in enumerate(order):
            path = WORK / f"trace{i}.json" if traced else None
            rec = self.invoke(cmd, path)
            wall += rec["wall_s"]
            cpu += rec["cpu_s"]
            if traced:
                traces.append(json.loads(path.read_text()) if path.exists() else None)
                path.unlink(missing_ok=True)
        return {"wall_s": wall, "cpu_s": cpu, "traces": traces}


def measure_setup(runner: Runner) -> list[float]:
    """Fresh-process start-up to a ready CLI: the cost every invocation pays."""
    help_cmd = Command(["--help"], checks.check_help)
    runner.invoke(help_cmd)  # warm-up: byte-compiles the package once
    return [runner.invoke(help_cmd)["wall_s"] for _ in range(SETUP_STARTS)]


def tail(values: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    k = n - 10
    return {"percentile": round(100.0 * k / n, 2), "value": sorted(values)[k - 1]}


def check_the_checks(runner: Runner) -> dict:
    """Each corrupted copy of a real output must be rejected by its check."""
    flagged = {}
    for check, text, csv_text in runner.samples.values():
        for case, bad_text, bad_csv in checks.corrupt(check, text, csv_text):
            flagged[case] = flagged.get(case, True) and bool(check(bad_text, bad_csv))
    return flagged


def digest_report(invocations: list[dict]) -> dict:
    """Output digests per command, compared with the committed baseline (not a failure)."""
    baseline = json.loads(BASELINE_DIGESTS.read_text()) if BASELINE_DIGESTS.exists() else {}
    digests, unstable = {}, set()
    for rec in invocations:
        for suffix, sha in (("", rec["stdout_sha256"]), (" [csv]", rec["csv_sha256"])):
            if sha is None:
                continue
            key = rec["key"] + suffix
            if digests.setdefault(key, sha) != sha:
                unstable.add(key)
    return {
        "digests": digests,
        "changed_from_baseline": sorted(k for k, v in digests.items() if k in baseline and baseline[k] != v),
        "not_in_baseline": sorted(k for k in digests if k not in baseline),
        "differs_between_passes": sorted(unstable),
    }


def machine(seed: int, seconds: int) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), model)
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = "unknown"  # a source tree without its own .git has no commit to report
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
        "python": platform.python_version(), "numpy": numpy_version,
        "commit": commit, "seed": seed, "seconds": seconds,
    }


# -- per-layer metrics from the traced passes ------------------------------

LAYERS = ("linalg", "solver", "poly", "lie", "representations", "em",
          "mechanics", "fluids", "geometry", "cli")
POLY_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
            "differentiate")


def layer_metrics(traces: list[dict], wall_s: float) -> dict:
    """Per-layer numbers for one traced pass (sums over its invocations)."""
    fn: dict[str, list] = {}
    counters: dict[str, float] = {}
    for tr in traces:
        for key, (calls, total, self_s) in tr["functions"].items():
            acc = fn.setdefault(key, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for key, value in tr["counters"].items():
            counters[key] = counters.get(key, 0) + value

    def calls(*keys):
        return sum(fn.get(k, (0, 0, 0))[0] for k in keys)

    def total(*keys):
        return sum(fn.get(k, (0, 0, 0))[1] for k in keys)

    def self_of(*keys):
        return sum(fn.get(k, (0, 0, 0))[2] for k in keys)

    def ratio(a, b):
        return a / b if b else 0.0

    layer_self = {layer: sum(v[2] for k, v in fn.items() if k.split(".")[0] == layer)
                  for layer in LAYERS}
    attributed = sum(layer_self.values())
    m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    m.update({
        "linalg.rref.calls": calls("linalg.rref"),
        "linalg.rref.cells": counters["rref_cells"],
        "linalg.rref.nnz": counters["rref_nnz"],
        "linalg.nullspace.total_s": total("linalg.nullspace"),
        "linalg.in_span.calls": calls("linalg.in_span"),
        "linalg.in_span.total_s": total("linalg.in_span"),
        "linalg.rref_per_span_proof": ratio(counters["rref_under_proof"], calls("solver.span_equal")),
        "solver.assemble.self_s": self_of("solver.solve_system", "solver.restrict_span"),
        "solver.proof.total_s": total("solver.span_equal"),
        "solver.structure_constants.total_s": total("solver.structure_constants"),
        "solver.jacobi.total_s": total("solver.StructureConstants.jacobi_ok"),
        "solver.raw_dim": counters["nullspace_vectors"],
        "poly.ops": calls(*(f"poly.Poly.{op}" for op in POLY_OPS)),
        "poly.evaluate.calls": calls("poly.Poly.evaluate"),
        "poly.evaluate.self_s": self_of("poly.Poly.evaluate"),
        "lie.lie_bracket.calls": calls("lie.lie_bracket"),
        "lie.conformal_factors.total_s": total("lie.conformal_factors"),
        "representations.verify.total_s": total("representations.verify_representation"),
        "em.symmetry_check.calls": calls("em.symmetry_check"),
        "mechanics.rk4.steps": counters["rk4_steps"],
        "mechanics.rk4.steps_per_s": ratio(counters["rk4_steps"], total("mechanics.rk4")),
        "mechanics.noether.total_s": total("mechanics.massive_noether_residual",
                                           "mechanics.presymplectic_residual_photon"),
        "fluids.residual.points": counters["fluid_points"],
        "fluids.residual.points_per_s": ratio(counters["fluid_points"], total("fluids.fluid_residual")),
        "trace.unattributed_s": wall_s - attributed,
    })
    shares = {layer: ratio(v, attributed) for layer, v in layer_self.items()}
    shares["poly.evaluate"] = ratio(self_of("poly.Poly.evaluate"), attributed)
    return {"metrics": m, "self_share": shares}


def trace_fidelity(traced_pass: dict, order: list[Command]) -> list[str]:
    problems = []
    for cmd, tr in zip(order, traced_pass["traces"]):
        if tr is None:
            problems.append(f"{cmd.key}: no trace written")
            continue
        if tr["escapes"]:
            problems.append(f"{cmd.key}: calls escape the wrappers via {tr['escapes']}")
        self_sum = sum(v[2] for v in tr["functions"].values()) + tr["hook_s"]
        if abs(self_sum - tr["main_s"]) > 1e-3 + 1e-3 * tr["main_s"]:
            problems.append(f"{cmd.key}: self times sum to {self_sum:.6f} s, span covers {tr['main_s']:.6f} s")
    return problems


def _stdout_digests(invocations: list[dict], traced: bool) -> dict:
    out: dict[str, set] = {}
    for r in invocations:
        if r["traced"] == traced:
            out.setdefault(r["key"], set()).add(r["stdout_sha256"])
    return out


def main(argv=None) -> int:
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ncsym" / "cli.py").is_file():
        print(f"error: no ncsym sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    try:
        return _run(args, started)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def _run(args, started: float) -> int:
    commands = workload(args.workload, args.seed)
    rng = random.Random(args.seed)
    runner = Runner(started)
    setup = [] if args.trace else measure_setup(runner)

    passes, traced_passes, fidelity, layer = [], [], [], []
    window = time.perf_counter()
    while True:
        order = rng.sample(commands, len(commands))
        t0 = time.perf_counter()
        passes.append(runner.run_pass(order, traced=False))
        if args.trace:
            tp = runner.run_pass(order, traced=True)
            traced_passes.append(tp)
            fidelity += trace_fidelity(tp, order)
            if all(tr is not None for tr in tp["traces"]):
                layer.append(layer_metrics(tp["traces"], tp["wall_s"]))
        round_s = time.perf_counter() - t0
        elapsed = time.perf_counter() - window
        if elapsed + round_s > args.seconds or time.perf_counter() - started + round_s > RUN_LIMIT_S:
            break

    work = [r for r in runner.invocations if r["key"] != "--help"]
    failures = [r for r in runner.invocations if r["problems"]]
    walls = [p["wall_s"] for p in passes]
    digests = digest_report([r for r in runner.invocations if not r["traced"]])
    flagged = check_the_checks(runner)
    per_command = {}
    for r in work:
        if not r["traced"]:
            per_command.setdefault(r["key"], []).append((r["wall_s"], r["cpu_s"], r["rss_mb"]))
    if args.trace and _stdout_digests(runner.invocations, True) != _stdout_digests(runner.invocations, False):
        fidelity.append("traced stdout differs from untraced stdout")

    record = {
        "workload": args.workload, "machine": machine(args.seed, args.seconds),
        "passes": len(passes), "commands_per_pass": len(commands),
        "invocations": len(runner.invocations), "failed": len(failures),
        "fail_ratio": len(failures) / len(runner.invocations),
        "failures": [{"key": r["key"], "problems": r["problems"]} for r in failures][:20],
        "wall_s": {"median": statistics.median(walls), "tail": tail(walls), "passes": walls},
        "cpu_s": [p["cpu_s"] for p in passes],
        "setup_s": setup,
        "per_command": {
            k: {"wall_s": statistics.median(v[0] for v in vals), "cpu_s": statistics.median(v[1] for v in vals),
                "peak_rss_mb": max(v[2] for v in vals)}
            for k, vals in per_command.items()
        },
        "check_the_checks": flagged,
        **digests,
    }
    correct = not failures and all(flagged.values()) and not fidelity
    if args.trace:
        metrics = {k: statistics.median(lm["metrics"][k] for lm in layer) for k in layer[0]["metrics"]} if layer else {}
        metrics["trace.overhead"] = (statistics.median(p["wall_s"] for p in traced_passes)
                                     / statistics.median(walls) - 1.0)
        units = {k: _unit(k) for k in metrics}
        record["trace"] = {"fidelity_problems": fidelity[:20],
                           "self_share": {k: statistics.median(lm["self_share"][k] for lm in layer)
                                          for k in layer[0]["self_share"]} if layer else {},
                           "traced_wall_s": [p["wall_s"] for p in traced_passes]}
        correct = correct and bool(layer)
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "peak_rss_mb": max(r["rss_mb"] for r in work),
            "setup_s": statistics.median(setup),
        }
        units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": len(runner.invocations),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name == "trace.overhead" or name.endswith("per_span_proof"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
