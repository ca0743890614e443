"""Summarize saved benchmark runs into a baseline.

    python3 perfbench/summarize.py OUT_DIR RUN_OUTPUT...

Each RUN_OUTPUT is the captured stdout of one ``run.py`` invocation.
Writes ``OUT_DIR/results.json`` (per workload: machine, seeds, every
metric value with its median and quartile spread, wall-time tail over
the pooled passes, per-command medians pooled over seeds, failures) and
``OUT_DIR/digests.json`` (the stdout/CSV sha256 of every command seen,
which later runs report differences against).
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

from run import tail


def summarize(paths: list[str]) -> tuple[dict, dict]:
    out: dict[str, dict] = {}
    digests: dict[str, str] = {}
    for path in paths:
        lines = Path(path).read_text().splitlines()
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
        mode = "traced" if "trace" in record else "untraced"
        w = out.setdefault(record["workload"], {}).setdefault(mode, {
            "machine": {k: v for k, v in record["machine"].items() if k != "seed"},
            "seeds": [], "passes": [], "pass_walls_s": [], "attempted": 0, "failed": 0,
            "metrics": {}, "per_command_wall_s": {}, "check_the_checks": {},
        })
        w["seeds"].append(record["machine"]["seed"])
        w["passes"].append(record["passes"])
        w["pass_walls_s"] += record["wall_s"]["passes"]
        w["attempted"] += result["attempted"]
        w["failed"] += result["failed"]
        w["check_the_checks"].update(record["check_the_checks"])
        for name, m in result["metrics"].items():
            w["metrics"].setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
        for key, m in record["per_command"].items():
            key = re.sub(r" --seed \d+", "", key)  # pool seeded commands across runs
            w["per_command_wall_s"].setdefault(key, []).append(m["wall_s"])
        digests.update(record["digests"])
    for modes in out.values():
        for w in modes.values():
            for m in w["metrics"].values():
                v = m["values"]
                m["median"] = statistics.median(v)
                if len(v) >= 2 and m["median"]:
                    q = statistics.quantiles(v, n=4)
                    m["iqr_over_median"] = (q[2] - q[0]) / m["median"]
            w["wall_s_tail_pooled"] = tail(w.pop("pass_walls_s"))
            w["per_command_wall_s"] = {k: statistics.median(v) for k, v in w["per_command_wall_s"].items()}
    return out, dict(sorted(digests.items()))


if __name__ == "__main__":
    target = Path(sys.argv[1])
    target.mkdir(parents=True, exist_ok=True)
    results, digests = summarize(sys.argv[2:])
    (target / "results.json").write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    (target / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
