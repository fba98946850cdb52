#!/usr/bin/env python3
"""Self-check of the benchmark; each point is described in NOTES.md.

Run from the root of a checkout (takes about four minutes on two cores):

    python3 perfbench/selfcheck.py

1. The committed inputs are what the generator writes for seed 1.
2. Every metric is printed with its unit: the end-to-end ones on corner-solve
   and cli-short, the per-layer ones on a traced run.
3. Two traced runs give identical counts.
4. An operation given a wrong expected result is counted in fail_ratio.
5. NOTES.md gives the layer -> end-to-end mapping for every layer.
6. Without the program's sources the benchmark exits non-zero and prints no
   result.

Exits 0 when every point holds, 1 otherwise.
"""

from __future__ import annotations

import filecmp
import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import run
import workloads

HERE = run.HERE
ROOT = run.ROOT
WORK = run.WORK / "selfcheck"
COMMITTED_SEED = 1
LAYERS = ("cli", "io", "profiles", "functionals", "bounds", "blowup", "solver")
#: every end-to-end name the record prints, on the workload where it applies
PRINTED = {
    "corner-solve": ["setup_s", "job_rel", "op_p50_rel", "job_s", "op_p50_s", "ref_s",
                     "peak_rss_mb", "solve_s", "mms_s", "fail_ratio"],
    "cli-short": ["setup_s", "job_rel", "op_p50_rel", "job_s", "op_p50_s", "ref_s", "op_tail_s",
                  "peak_rss_mb", "profile_s", "bounds_s", "verify_s", "solve_s", "blowup_s",
                  "fail_ratio"],
}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_inputs() -> list[str]:
    problems = []
    for name in workloads.NAMES:
        work = WORK / "inputs" / name
        shutil.rmtree(work, ignore_errors=True)
        workloads.build(name, COMMITTED_SEED, work)
        committed = HERE / "inputs" / name
        cmp = filecmp.dircmp(work / "inputs", committed)
        if cmp.left_only or cmp.right_only:
            problems.append(f"{name}: generated {cmp.left_only} vs committed {cmp.right_only}")
        _, mismatch, errors = filecmp.cmpfiles(work / "inputs", committed, cmp.common_files,
                                               shallow=False)
        if mismatch or errors:
            problems.append(f"{name}: inputs differ from the committed ones: {mismatch + errors}")
    return problems


def check_printed(spec: dict) -> list[str]:
    problems = []
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, printed in PRINTED.items():
        proc = bench("--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0")
        result = last_json(proc)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != units:
            problems.append(f"{name}: result metrics {got} != BENCHMARK.json {units}")
        for metric in printed:
            if not re.search(rf"^{re.escape(metric)}\s+\S+ \S+", proc.stdout, re.M):
                problems.append(f"{name}: {metric} is not printed with a unit")
    return problems


def check_traced(spec: dict) -> list[str]:
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    procs = [bench("--workload", "fan-scan", "--seed", "1", "--seconds", "1", "--trace", "1")
             for _ in range(2)]
    problems = []
    for proc in procs:
        got = {k: v["unit"] for k, v in last_json(proc)["metrics"].items()}
        if got != units:
            problems.append(f"traced metrics {got} != BENCHMARK.json {units}")
        problems += [f"{metric} is not printed with a unit" for metric in units
                     if not re.search(rf"^{re.escape(metric)}\s+\S+ \S+", proc.stdout, re.M)]
    counted = [k for k, u in units.items() if u in ("count", "bytes")]
    a, b = (last_json(p)["metrics"] for p in procs)
    problems += [f"count {k} differs: {a[k]['value']} vs {b[k]['value']}"
                 for k in counted if a[k]["value"] != b[k]["value"]]
    return problems


def check_wrong_expectation() -> list[str]:
    """A wrong exit code and a wrong oracle input each count as one failure."""
    work = WORK / "wrong"
    shutil.rmtree(work, ignore_errors=True)
    ops = {op.label: op for op in workloads.build("cli-short", COMMITTED_SEED, work)}
    wrong_exit = replace(ops["verify-examples"], expect_exit=5)
    spec = json.loads((work / "inputs" / "constant_plus.json").read_text())
    spec["generator"]["gamma"] += 0.1  # the oracle now expects another fan width
    honest = ops["bounds-constant"]
    wrong_value = replace(honest, check=lambda o, so, se: workloads._bounds_check(
        o, so, se, specs={"+": spec, "-": json.loads(
            (work / "inputs" / "constant_minus.json").read_text())}, cases=["I"]))
    records, _ = run.closed_loop([wrong_exit, honest, wrong_value], 0.0, work)
    failed = [r["label"] for r in records if r["problems"]]
    ratio = run.fail_ratio(records)
    if failed != ["verify-examples", "bounds-constant"] or ratio != 2 / 3:
        return [f"wrong expectations gave failures {failed}, fail_ratio {ratio}, want 2/3"]
    return []


def check_notes() -> list[str]:
    text = (HERE / "NOTES.md").read_text()
    section = text.split("## Layer → end-to-end mapping", 1)
    if len(section) != 2:
        return ["NOTES.md has no layer -> end-to-end mapping section"]
    body = section[1].split("\n## ", 1)[0]
    return [f"mapping does not name layer {layer}" for layer in LAYERS
            if f"`{layer}." not in body]


def check_missing_program() -> list[str]:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = bench("--workload", "cli-short", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    checks = [
        ("committed inputs match seed 1", check_inputs),
        ("metrics printed with units", lambda: check_printed(spec)),
        ("traced counts repeat", lambda: check_traced(spec)),
        ("wrong expectations count as failures", check_wrong_expectation),
        ("NOTES.md maps every layer", check_notes),
        ("no result without the program", check_missing_program),
    ]
    ok = True
    for title, check in checks:
        problems = check()
        ok &= not problems
        print(f"{'PASS' if not problems else 'FAIL'} {title}")
        for p in problems:
            print(f"  {p}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
