#!/usr/bin/env python3
"""Show how far the artifacts of two golden_artifacts.py runs moved.

For every file under either directory it prints `same` when the two copies
are byte-identical; otherwise, for a CSV, the largest |difference| in each
column and then each column whose non-numeric cells differ, with the count of
cells that do, and for any other file (manifests) the lines that differ.  Then it prints one line per solve manifest whose
Newton step count or stop reason (``solver.iterations``, ``solver.stop``)
changed, or one line saying that none did.  Exits 1 if a file exists on one
side only or two CSVs differ in shape or in a non-numeric cell; a changed
step count or stop alone does not change the exit code.

Usage:
    python3 scripts/compare_artifacts.py BASE_DIR NEW_DIR
"""

import argparse
import csv
import difflib
import math
import sys
from pathlib import Path


def csv_moves(a: Path, b: Path) -> tuple[str, bool] | None:
    """('column=max|delta| ...; text cells differ: column (count) ...', whether
    any non-numeric cell differs), or None if the tables do not line up.  A
    column with a differing non-numeric cell is named only after the ';'."""
    ra, rb = (list(csv.reader(p.read_text().splitlines())) for p in (a, b))
    if len(ra) != len(rb) or ra[0] != rb[0] or any(len(x) != len(y) for x, y in zip(ra, rb)):
        return None
    worst = [0.0] * len(ra[0])
    text = [0] * len(ra[0])
    for x, y in zip(ra[1:], rb[1:]):
        for k, (u, v) in enumerate(zip(x, y)):
            if u == v:
                continue
            try:
                d = abs(float(u) - float(v))
            except ValueError:
                text[k] += 1
                continue
            worst[k] = max(worst[k], d if not math.isnan(d) else math.inf)
    report = " ".join(f"{name}={w:.3g}" for name, w, n in zip(ra[0], worst, text) if not n)
    if any(text):
        report += "; text cells differ: " + " ".join(
            f"{name} ({n})" for name, n in zip(ra[0], text) if n)
    return report, any(text)


def newton_fields(path: Path) -> tuple[str, str] | None:
    """(iterations, stop) from a manifest's ``solver`` section, or None if
    the manifest has no Newton step count."""
    fields, inside = {}, False
    for line in path.read_text().splitlines():
        if not line.startswith(" "):
            inside = line == "solver:"
        elif inside and not line.startswith("   "):
            key, _, value = line.strip().partition(": ")
            fields[key] = value
    if "iterations" not in fields:
        return None
    return fields["iterations"], fields.get("stop", "-")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="output directory of the first run")
    parser.add_argument("new", type=Path, help="output directory of the second run")
    args = parser.parse_args(argv)
    base, new = args.base, args.new
    names = {
        p.relative_to(root).as_posix()
        for root in (base, new)
        for p in root.rglob("*")
        if p.is_file()
    }
    status = 0
    for name in sorted(names):
        a, b = base / name, new / name
        if not (a.is_file() and b.is_file()):
            print(f"{name}: only in {base if a.is_file() else new}")
            status = 1
        elif a.read_bytes() == b.read_bytes():
            print(f"{name}: same")
        elif name.endswith(".csv"):
            moves = csv_moves(a, b)
            if moves is None:
                print(f"{name}: shape or header differs")
                status = 1
            else:
                print(f"{name}: {moves[0]}")
                status |= moves[1]
        else:
            print(f"{name}: differs")
            lines = (p.read_text().splitlines() for p in (a, b))
            for line in difflib.unified_diff(*lines, lineterm="", n=0):
                if not line.startswith(("---", "+++", "@@")):
                    print(f"  {line}")
    newton_changes = 0
    for name in sorted(names):
        a, b = base / name, new / name
        if not (name.endswith("manifest.txt") and a.is_file() and b.is_file()):
            continue
        old, now = newton_fields(a), newton_fields(b)
        if old and now and old != now:
            print(f"{name}: iterations {old[0]} -> {now[0]}, stop {old[1]} -> {now[1]}")
            newton_changes += 1
    if not newton_changes:
        print("Newton steps and stops: all same")
    return status


if __name__ == "__main__":
    sys.exit(main())
