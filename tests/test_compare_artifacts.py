"""scripts/compare_artifacts.py: per-file moves and changed Newton steps."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).parents[1] / "scripts" / "compare_artifacts.py"
SPEC = importlib.util.spec_from_file_location("compare_artifacts", PATH)
compare = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(compare)


def manifest(iterations, stop, norm="1e-11"):
    return "\n".join([
        "command: solve",
        "solver:",
        "  converged: True",
        f"  iterations: {iterations}",
        "  residual_history:",
        "    - 0.5",
        f"    - {norm}",
        f"  stop: {stop}",
        "trace:",
        "  iterations: 99",
        "",
    ])


def write_run(root, manifests):
    for name, text in manifests.items():
        (root / name).mkdir(parents=True)
        (root / name / "manifest.txt").write_text(text)
    (root / "verify").mkdir()
    (root / "verify" / "manifest.txt").write_text("command: verify-examples\n")
    return root


def run(tmp_path, capsys, base, new):
    status = compare.main([
        str(write_run(tmp_path / "base", base)), str(write_run(tmp_path / "new", new)),
    ])
    return status, capsys.readouterr().out.splitlines()


def test_changed_newton_steps_and_stops_are_listed_after_the_files(tmp_path, capsys):
    status, lines = run(
        tmp_path, capsys,
        {"solve-a": manifest(5, "converged"), "solve-b": manifest(11, "stalled"),
         "solve-c": manifest(4, "converged")},
        {"solve-a": manifest(6, "converged"), "solve-b": manifest(200, "max_iter"),
         "solve-c": manifest(4, "converged", norm="2e-11")},
    )
    assert status == 0  # the step counts alone do not change the exit code
    assert lines[-2:] == [
        "solve-a/manifest.txt: iterations 5 -> 6, stop converged -> converged",
        "solve-b/manifest.txt: iterations 11 -> 200, stop stalled -> max_iter",
    ]
    assert "solve-c/manifest.txt: differs" in lines
    assert "verify/manifest.txt: same" in lines


@pytest.mark.parametrize("norm", ["1e-11", "3e-12"])
def test_unchanged_newton_steps_are_reported_in_one_line(tmp_path, capsys, norm):
    status, lines = run(
        tmp_path, capsys, {"solve-a": manifest(5, "converged")},
        {"solve-a": manifest(5, "converged", norm=norm)},
    )
    assert status == 0
    assert lines[-1] == "Newton steps and stops: all same"


def test_a_renamed_text_cell_keeps_exit_1_and_shows_the_numeric_moves(tmp_path, capsys):
    """A CSV whose text cells differ still reports how far its numbers moved."""
    header = "side,case,beta_min,method\n"
    for root, beta, method in ((tmp_path / "base", "0.451", "theorem2_scan"),
                               (tmp_path / "new", "0.45102681179626236", "corollary1")):
        (root / "bounds-x").mkdir(parents=True)
        (root / "bounds-x" / "bounds.csv").write_text(
            header + f"+,I,{beta},{method}\n-,I,1.2,{method}\n")
    status = compare.main([str(tmp_path / "base"), str(tmp_path / "new")])
    lines = capsys.readouterr().out.splitlines()
    assert status == 1
    assert lines[0] == ("bounds-x/bounds.csv: side=0 case=0 beta_min=2.68e-05; "
                        "text cells differ: method (2)")
