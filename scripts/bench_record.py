#!/usr/bin/env python3
"""Write the benchmark record of one change: parent and change side by side.

Reads the ``--trace 0`` result files that ``perfbench/run.py`` leaves in
each checkout's ``.perfbench_work/`` (one per workload, at one seed) and
prints, per side, the git SHA the runs measured and, per workload, the
end-to-end metrics that ``BENCHMARK.json`` declares, with ``correct``,
``attempted`` and ``failed``.  The checkouts must be git checkouts, so that
``run.py`` could read their SHA, and every result file of a side must name
the same one.

Usage:
    python3 scripts/bench_record.py PARENT_CHECKOUT CHANGE_CHECKOUT > BENCH_<n>.json
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def side_record(checkout: Path, workloads: list[str], metrics: list[str], seed: int) -> dict:
    """The SHA, machine and per-workload results of one checkout's runs."""
    shas, machines, results = set(), set(), {}
    for name in workloads:
        path = checkout / ".perfbench_work" / f"result-{name}-seed{seed}-trace0.json"
        try:
            record = json.loads(path.read_text())
        except OSError as exc:
            raise SystemExit(f"bench_record: cannot read {path}: {exc.strerror}")
        env, result = record["environment"], record["result"]
        shas.add(env["git_sha"])
        machines.add((env["platform"], env["nproc"], env["cpus_usable"]))
        results[name] = {
            **{key: result[key] for key in ("correct", "attempted", "failed")},
            "metrics": {key: result["metrics"][key]["value"] for key in metrics},
        }
    if len(shas) != 1 or None in shas:
        raise SystemExit(f"bench_record: the runs in {checkout} name the SHAs {sorted(map(str, shas))}")
    if len(machines) != 1:
        raise SystemExit(f"bench_record: the runs in {checkout} ran on different machines")
    (platform, nproc, cpus), = machines
    return {"git_sha": shas.pop(), "platform": platform, "nproc": nproc,
            "cpus_usable": cpus, "workloads": results}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit, after its runs")
    parser.add_argument("change", type=Path, help="checkout of the change, after its runs")
    parser.add_argument("--seed", type=int, default=1, help="seed of the runs (default 1)")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]
    record = {
        "seed": args.seed,
        "units": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        **{side: side_record(path, workloads, metrics, args.seed)
           for side, path in (("parent", args.parent), ("change", args.change))},
    }
    json.dump(record, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
