"""scripts/bench_record.py: the per-change benchmark record."""

import importlib.util
import json
from pathlib import Path

import pytest

PATH = Path(__file__).parents[1] / "scripts" / "bench_record.py"
SPEC = importlib.util.spec_from_file_location("bench_record", PATH)
bench_record = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_record)

BENCH = json.loads((PATH.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
METRICS = [m["name"] for m in BENCH["end_to_end"]]


def write_runs(checkout, sha, value, seed=1, skip=()):
    work = checkout / ".perfbench_work"
    work.mkdir(parents=True)
    for k, name in enumerate(WORKLOADS):
        if name in skip:
            continue
        record = {
            "environment": {"git_sha": sha, "platform": "Linux-x", "nproc": 2, "cpus_usable": 2},
            "result": {
                "correct": True, "attempted": 10 + k, "failed": 0,
                "metrics": {m: {"value": value + k, "unit": "s"} for m in METRICS + ["extra"]},
            },
            "info": {"job_s": 99.0},
        }
        (work / f"result-{name}-seed{seed}-trace0.json").write_text(json.dumps(record))
    return checkout


def test_record_holds_both_sides(tmp_path, capsys):
    parent = write_runs(tmp_path / "p", "a" * 40, 1.0)
    change = write_runs(tmp_path / "c", "b" * 40, 2.0)
    assert bench_record.main([str(parent), str(change)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["units"] == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    for side, sha, value in (("parent", "a" * 40, 1.0), ("change", "b" * 40, 2.0)):
        assert record[side]["git_sha"] == sha
        assert (record[side]["platform"], record[side]["nproc"]) == ("Linux-x", 2)
        assert list(record[side]["workloads"]) == WORKLOADS
        for k, name in enumerate(WORKLOADS):
            assert record[side]["workloads"][name] == {
                "correct": True, "attempted": 10 + k, "failed": 0,
                "metrics": {m: value + k for m in METRICS},
            }


@pytest.mark.parametrize("problem", ["missing", "no-sha", "two-shas"])
def test_record_refuses_incomplete_or_mixed_runs(tmp_path, problem):
    parent = write_runs(tmp_path / "p", "a" * 40, 1.0,
                        skip=WORKLOADS[-1:] if problem == "missing" else ())
    change = write_runs(tmp_path / "c", None if problem == "no-sha" else "b" * 40, 2.0)
    if problem == "two-shas":
        path = change / ".perfbench_work" / f"result-{WORKLOADS[0]}-seed1-trace0.json"
        record = json.loads(path.read_text())
        record["environment"]["git_sha"] = "c" * 40
        path.write_text(json.dumps(record))
    with pytest.raises(SystemExit, match="bench_record: "):
        bench_record.main([str(parent), str(change)])
