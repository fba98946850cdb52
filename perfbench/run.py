#!/usr/bin/env python3
"""wedgecap benchmark: end-to-end CLI wall times, or a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corner-solve --seed 1 --seconds 15 --trace 0

``--trace 0`` times the workload's operations as ``python -m wedgecap``
subprocesses, one at a time, going round the operation list until
``--seconds`` have passed (at least once), with a run of ``reference.py``
after each operation, and checks every output against the oracles in
``oracles.py``.  ``--trace 1`` replays the operations of all
three workloads in-process through ``wedgecap.cli.main``, once plainly and
once with the spans of ``tracing.py`` installed, and reports per-layer
metrics.  Either way the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the full record, with the
environment, goes to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

#: BLAS/OpenMP thread caps for every child and for the traced run itself, so
#: that on a small machine the numbers measure the program, not the scheduler
THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_CAPS)  # before numpy is imported by a traced run

import oracles  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 3
#: import-floor samples between operations, per run
SETUP_SAMPLES = 10
IMPORTTIME_REPS = 3
OP_TIMEOUT_S = 150.0
END_TO_END_UNITS = {"setup_s": "s", "job_rel": "ref", "op_p50_rel": "ref", "peak_rss_mb": "MB"}


class MissingProgram(Exception):
    pass


def require_program() -> None:
    if not (ROOT / "src" / "wedgecap" / "cli.py").is_file():
        raise MissingProgram(f"no wedgecap sources under {ROOT / 'src'}")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], log: Path) -> tuple[float, int, float, str, str]:
    """Run one child; returns (seconds, exit code, peak RSS in MB, stdout, stderr)."""
    out_log, err_log = log.with_suffix(".out"), log.with_suffix(".err")
    log.parent.mkdir(parents=True, exist_ok=True)
    with open(out_log, "wb") as so, open(err_log, "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + args, stdout=so, stderr=se,
                                env=child_env(), cwd=ROOT)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not by Popen
    return (seconds, proc.returncode, usage.ru_maxrss / 1024.0,
            out_log.read_text(errors="replace"), err_log.read_text(errors="replace"))


def sample_setup(work: Path) -> float:
    """Wall time of one bare `import wedgecap.cli` child."""
    return run_child(["-c", "import wedgecap.cli"], work / "logs" / "setup")[0]


def sample_reference(work: Path) -> float:
    """Wall time of one run of the fixed reference program."""
    return run_child([str(HERE / "reference.py")], work / "logs" / "reference")[0]


def probe_versions(work: Path) -> dict:
    probe = ("import wedgecap.cli, json, platform, numpy, scipy; print(json.dumps("
             "{'python': platform.python_version(), 'numpy': numpy.__version__, "
             "'scipy': scipy.__version__}))")
    _, code, _, out, err = run_child(["-c", probe], work / "logs" / "probe")
    if code != 0:
        raise MissingProgram(f"import wedgecap.cli failed:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds from ``python -X importtime`` output.

    Returns ``wedgecap`` (every top-level wedgecap* import), ``scipy.sparse``
    (every outermost scipy.sparse* import, linalg included) and the
    outermost ``numpy``, ``scipy.sparse.linalg`` and each ``wedgecap.*``
    module, for the breakdown.
    """
    roots: list[tuple[int, str, float, list]] = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        level = (len(name) - len(name.lstrip()) - 1) // 2
        children = []
        while roots and roots[-1][0] > level:
            children.insert(0, roots.pop())
        roots.append((level, name.strip(), int(cum) * 1e-6, children))

    out: dict[str, float] = defaultdict(float)

    def walk(node, under_sparse: bool, under_linalg: bool) -> None:
        _, name, cum, children = node
        sparse = name == "scipy.sparse" or name.startswith("scipy.sparse.")
        if sparse and not under_sparse:
            out["scipy.sparse"] += cum
        if name == "scipy.sparse.linalg" and not under_linalg:
            out["scipy.sparse.linalg"] += cum
        if name == "numpy" or name.startswith("wedgecap."):
            out[name] += cum
        for c in children:
            walk(c, under_sparse or sparse, under_linalg or name == "scipy.sparse.linalg")

    for root in roots:
        if root[1] == "wedgecap" or root[1].startswith("wedgecap."):
            out["wedgecap"] += root[2]
        walk(root, False, False)
    return dict(out)


def importtime_breakdown(work: Path, reps: int) -> dict:
    """Median over `reps` runs of each cumulative import time, in seconds."""
    runs = []
    for _ in range(reps):
        _, _, _, _, err = run_child(["-X", "importtime", "-c", "import wedgecap.cli"],
                                    work / "logs" / "importtime")
        runs.append(parse_importtime(err))
    return {k: statistics.median(r.get(k, 0.0) for r in runs) for k in sorted(runs[0])}


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            ref = (git / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None  # not a git checkout, or a packed ref


def environment(versions: dict) -> dict:
    return {
        **versions,
        "harness_python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "thread_caps": THREAD_CAPS,
        "platform": platform.platform(),
    }


def tail(samples: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return {"value": sorted(samples)[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


def check_op(op, code: int, stdout: str, stderr: str) -> list[str]:
    if code != op.expect_exit:
        return [f"exit {code}, want {op.expect_exit}: {stderr.strip()[-300:]}"]
    try:
        return op.check(op.out, stdout, stderr)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return [f"oracle could not read the artifacts: {exc!r}"]


# ---------------------------------------------------------------------------
# untraced: subprocess closed loop


def closed_loop(ops, seconds: float, work: Path, sample_setup=None, sample_ref=None):
    """Run the operation list round and round until `seconds` have passed.

    The first pass always completes; after it the loop stops before the first
    operation that would start past `seconds`, so a run of a workload whose
    pass is long ends close to `seconds` and not a whole pass later.
    `sample_ref` is called before the first operation and after every one, and
    each record gets the mean of the reference times on either side of it.
    `sample_setup` is called after an operation once `seconds`/SETUP_SAMPLES
    have passed since its last call, so that it samples the same stretch of
    time as the operations.  Returns one record per operation run and the
    number of complete passes.
    """
    records = []
    ref = sample_ref() if sample_ref is not None else None
    start = last = time.perf_counter()
    i = 0
    while i < len(ops) or time.perf_counter() - start < seconds:
        op = ops[i % len(ops)]
        shutil.rmtree(op.out, ignore_errors=True)
        secs, code, rss, out, err = run_child(["-m", "wedgecap"] + op.argv,
                                              work / "logs" / op.label)
        records.append({"label": op.label, "kind": op.kind, "seconds": secs, "exit": code,
                        "rss_mb": rss, "problems": check_op(op, code, out, err)})
        if sample_ref is not None:
            after = sample_ref()
            records[-1]["ref_s"] = (ref + after) / 2
            ref = after
        if sample_setup is not None and time.perf_counter() - last >= seconds / SETUP_SAMPLES:
            sample_setup()
            last = time.perf_counter()
        i += 1
    return records, i // len(ops)


def op_medians(records: list[dict], value) -> dict[str, float]:
    """Median of `value(record)` for each operation over all its runs."""
    by_label: dict[str, list[float]] = defaultdict(list)
    for r in records:
        by_label[r["label"]].append(value(r))
    return {label: statistics.median(v) for label, v in by_label.items()}


def fail_ratio(records: list[dict]) -> float:
    return sum(1 for r in records if r["problems"]) / len(records)


def run_untraced(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    work = WORK / f"{name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    ops = workloads.build(name, seed, work)
    versions = probe_versions(work)  # also warms the file cache and bytecode
    imports = importtime_breakdown(work, 1)  # information only
    setup_samples = [sample_setup(work) for _ in range(SETUP_REPS)]
    ref_samples = [sample_reference(work) for _ in range(SETUP_REPS)]

    def sample_ref() -> float:
        ref_samples.append(sample_reference(work))
        return ref_samples[-1]

    records, passes = closed_loop(ops, seconds, work,
                                  lambda: setup_samples.append(sample_setup(work)), sample_ref)
    # complete passes only, so that every operation weighs the same
    times = [r["seconds"] for r in records[:passes * len(ops)]]
    per_op = op_medians(records, lambda r: r["seconds"])
    # the host's speed drifts by up to 1.6x within seconds to minutes; dividing
    # each operation by the reference runs on either side of it cancels most
    # of that drift
    per_op_rel = op_medians(records, lambda r: r["seconds"] / r["ref_s"])
    failed = sum(1 for r in records if r["problems"])
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "job_rel": sum(per_op_rel.values()),
        "op_p50_rel": statistics.median(per_op_rel.values()),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
    }
    per_kind = {
        f"{kind}_s": statistics.median(r["seconds"] for r in records if r["kind"] == kind)
        for kind in workloads.KINDS if any(r["kind"] == kind for r in records)
    }
    info = {
        "job_s": sum(per_op.values()),
        "op_p50_s": statistics.median(per_op.values()),
        "ref_s": statistics.median(ref_samples),
        "op_tail_s": tail(times),
        "fail_ratio": fail_ratio(records),
        "subcommand_p50_s": per_kind,
        "passes": passes,
        "op_median_s": per_op,
        "op_median_rel": per_op_rel,
        "setup_samples_s": setup_samples,
        "ref_samples_s": ref_samples,
        "import_breakdown_s": imports,
        "artifacts_sha256": {op.label: oracles.sha256_tree(op.out) for op in ops if op.out.is_dir()},
        "solve_info": {op.label: op.info(op.out) for op in ops if op.info and op.out.is_dir()},
        "failures": [r for r in records if r["problems"]],
    }
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": 0,
              "environment": environment(versions), "result": result, "info": info,
              "operations": records}
    return result, record


def print_untraced(record: dict) -> None:
    info = record["info"]
    for key, m in record["result"]["metrics"].items():
        print(f"{key:<34} {m['value']:.6f} {m['unit']}")
    for key in ("job_s", "op_p50_s", "ref_s"):
        print(f"{key:<34} {info[key]:.6f} s")
    t = info["op_tail_s"]
    if t is not None:
        print(f"{'op_tail_s':<34} {t['value']:.6f} s  (p{t['percentile']:.1f} of {t['samples']} ops)")
    for key, value in info["subcommand_p50_s"].items():
        print(f"{key:<34} {value:.6f} s")
    print(f"{'fail_ratio':<34} {info['fail_ratio']:.6f} ratio  "
          f"({record['result']['failed']}/{record['result']['attempted']} ops)")
    for label, sinfo in info["solve_info"].items():
        print(f"info {label}: fan case {sinfo['fan_case']}, Rf in "
              f"[{sinfo['rf_min']:.6g}, {sinfo['rf_max']:.6g}], "
              f"{sinfo['newton_iterations']} Newton iterations")
    imp = info["import_breakdown_s"]
    print("info import breakdown (cumulative s): "
          + ", ".join(f"{k} {v:.4f}" for k, v in imp.items() if not k.startswith("wedgecap.")))
    for fail in info["failures"][:10]:
        print(f"FAIL {fail['label']}: {'; '.join(fail['problems'])}")


# ---------------------------------------------------------------------------
# traced: in-process replay of every workload's operations


def run_inprocess(op, tracer=None) -> tuple[float, dict]:
    """One operation through wedgecap.cli.main, with its output checked off the clock."""
    import wedgecap.cli

    shutil.rmtree(op.out, ignore_errors=True)
    if tracer is not None:
        tracer.op = op.label
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = wedgecap.cli.main(op.argv)  # the traced pass has patched main
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception:  # a crash is a failed operation, not a failed benchmark
            code = None
            traceback.print_exc()
        seconds = time.perf_counter() - t0
    return seconds, {"label": op.label, "exit": code,
                     "problems": check_op(op, code, out.getvalue(), err.getvalue())}


def run_traced(seed: int) -> tuple[dict, dict]:
    import tracing

    work = WORK / f"trace-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    ops = []
    for name in workloads.NAMES:
        for op in workloads.build(name, seed, work / name):
            op.label = f"{name}/{op.label}"
            ops.append(op)
    imports = importtime_breakdown(work, IMPORTTIME_REPS)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy

    for op in ops:  # untimed warm-up: first calls load lazily imported code
        if op.label.startswith("cli-short/"):
            run_inprocess(op)
    # each operation runs plainly and traced back to back, in alternating
    # order, so that slow drift in machine speed and any second-run advantage
    # fall on both sides of the overhead ratio
    tracer = tracing.Tracer()
    plain_s = traced_s = 0.0
    records = []
    for i, op in enumerate(ops):
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if traced:
                tracer.install()
            try:
                seconds, rec = run_inprocess(op, tracer if traced else None)
            finally:
                tracer.uninstall()
            if traced:
                traced_s += seconds
            else:
                plain_s += seconds
            records.append({**rec, "traced": traced, "seconds": seconds})

    metrics = tracer.layer_metrics()
    metrics["cli.import_s"] = imports.get("wedgecap", 0.0)
    metrics["cli.import_scipy_sparse_s"] = imports.get("scipy.sparse", 0.0)
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    failed = sum(1 for r in records if r["problems"])
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u}
                          for k, u in tracing.PER_LAYER.items()}}
    spans_path = work / "spans.json"
    spans_path.write_text(json.dumps(tracer.span_records()))
    record = {"workload": "all", "seed": seed, "trace": 1,
              "environment": environment({"python": platform.python_version(),
                                           "numpy": numpy.__version__,
                                           "scipy": scipy.__version__}),
              "result": result,
              "info": {"plain_s": plain_s, "traced_s": traced_s, "spans": len(tracer.spans),
                       "spans_file": str(spans_path.relative_to(ROOT)),
                       "import_breakdown_s": imports,
                       "failures": [r for r in records if r["problems"]]},
              "operations": records}
    return result, record


def print_traced(record: dict) -> None:
    for key, m in record["result"]["metrics"].items():
        print(f"{key:<34} {m['value']:.6f} {m['unit']}" if m["unit"] in ("s", "ratio")
              else f"{key:<34} {m['value']} {m['unit']}")
    info = record["info"]
    print(f"info plain replay {info['plain_s']:.3f} s, traced replay {info['traced_s']:.3f} s, "
          f"{info['spans']} spans in {info['spans_file']}")
    for fail in info["failures"][:10]:
        print(f"FAIL {fail['label']}: {'; '.join(fail['problems'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_program()
        if args.trace:
            result, record = run_traced(args.seed)
            print_traced(record)
        else:
            result, record = run_untraced(args.workload, args.seed, args.seconds)
            print_untraced(record)
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    path = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
