"""Which report numbers a change moves, and by how much: ``python tests/report_diff.py REV``.

Runs every golden case (``test_golden.CASES`` in each output format) and every argv that
``test_pinned.py`` pins through ``python -m pipeuq.cli``, once on ``src/`` as REV has it
(extracted with ``git archive``) and once on this checkout's ``src/``. Per case it prints
whether the two stdouts are byte-identical and, when not:

* the keys (JSON) or columns (csv) added or removed;
* how many numbers moved, the largest move in ulps and as a relative difference, and its path;
* every non-numeric value that changed.

JSON values are paired by their path, csv values by row and column. Table output is compared as
bytes only. The last line reads ``every case identical`` or how many cases differ. The script
gates nothing and regenerates nothing; pytest does not collect it.
"""

from __future__ import annotations

import csv
import io
import json
import os
import struct
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SHOWN = 5  # non-numeric changes printed per case


def ulps(a: float, b: float) -> int:
    """How many float64 values lie between ``a`` and ``b``, counting one end: 0 when equal, 0.0 and -0.0
    included, and 1 between neighbours."""

    def ordinal(x: float) -> int:
        bits = struct.unpack("<q", struct.pack("<d", x))[0]
        return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)

    return abs(ordinal(a) - ordinal(b))


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass
class Diff:
    """What moved between two documents: paths added and removed, numbers moved, the largest move
    as ``(ulps, relative difference, path)``, and the non-numeric changes as ``(path, old, new)``."""

    added: list = field(default_factory=list)
    removed: list = field(default_factory=list)
    moved: int = 0
    largest: tuple | None = None
    changed: list = field(default_factory=list)

    def leaf(self, path: str, old, new) -> None:
        """Pair two values at ``path``."""
        if _number(old) and _number(new):
            if old != new:
                self.moved += 1
                scale = max(abs(old), abs(new))
                move = (ulps(float(old), float(new)), abs(old - new) / scale, path)
                if self.largest is None or move[:2] > self.largest[:2]:
                    self.largest = move
        elif old != new or type(old) is not type(new):
            self.changed.append((path, old, new))


def compare_json(old, new, diff: Diff | None = None, path: str = "") -> Diff:
    """Pair two parsed JSON documents by path (``.key`` and ``[index]``)."""
    diff = Diff() if diff is None else diff
    if old == new and type(old) is type(new) and not isinstance(old, (dict, list)):
        return diff
    if isinstance(old, dict) and isinstance(new, dict):
        diff.removed += [f"{path}.{key}" for key in old if key not in new]
        diff.added += [f"{path}.{key}" for key in new if key not in old]
        for key in old:
            if key in new:
                compare_json(old[key], new[key], diff, f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list):
        if old != new or any(type(a) is not type(b) for a, b in zip(old, new)):
            for i, (a, b) in enumerate(zip(old, new)):
                compare_json(a, b, diff, f"{path}[{i}]")
        diff.removed += [f"{path}[{i}]" for i in range(len(new), len(old))]
        diff.added += [f"{path}[{i}]" for i in range(len(old), len(new))]
    else:
        diff.leaf(path or ".", old, new)
    return diff


def _cell(text: str):
    """A csv field as a number when it reads as one, else as its text."""
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            return text


def compare_csv(old: str, new: str) -> Diff:
    """Pair two csv documents by row (after the header) and by column name."""
    (old_header, *old_rows), (new_header, *new_rows) = (list(csv.reader(io.StringIO(t))) or [[]] for t in (old, new))
    diff = Diff(added=[c for c in new_header if c not in old_header],
                removed=[c for c in old_header if c not in new_header])
    columns = [(c, old_header.index(c), new_header.index(c)) for c in old_header if c in new_header]
    for i, (a, b) in enumerate(zip(old_rows, new_rows), start=1):
        if a != b:
            for name, j, k in columns:
                if a[j] != b[k]:
                    diff.leaf(f"row {i} {name}", _cell(a[j]), _cell(b[k]))
    diff.removed += [f"row {i}" for i in range(len(new_rows) + 1, len(old_rows) + 1)]
    diff.added += [f"row {i}" for i in range(len(old_rows) + 1, len(new_rows) + 1)]
    return diff


def describe(old: bytes, new: bytes, output: str) -> list[str]:
    """The lines printed for one case, whose two stdouts are ``old`` and ``new`` in format ``output``."""
    if old == new:
        return ["identical"]
    if output == "table":
        return ["bytes differ (a table is compared as bytes only)"]
    if output == "json":
        diff = compare_json(json.loads(old), json.loads(new))
    else:
        diff = compare_csv(old.decode(), new.decode())
    lines = ["bytes differ"]
    for what, paths in (("added", diff.added), ("removed", diff.removed)):
        if paths:
            lines.append(f"  {what}: {len(paths)}: {', '.join(paths[:SHOWN])}{' ...' if len(paths) > SHOWN else ''}")
    if diff.moved:
        steps, rel, path = diff.largest
        lines.append(f"  numbers moved: {diff.moved}; largest {steps} ulps, relative {rel:.3g}, at {path}")
    for path, a, b in diff.changed[:SHOWN]:
        lines.append(f"  changed: {path}: {a!r} -> {b!r}")
    if len(diff.changed) > SHOWN:
        lines.append(f"  changed: {len(diff.changed) - SHOWN} more")
    if len(lines) == 1:
        lines.append("  no value moved: only the formatting differs")
    return lines


def cases(inputs: Path) -> dict:
    """Every golden case in each format and every pinned argv, by name: ``(argv, output)``, each argv
    once, the input files written to ``inputs``."""
    import test_golden
    import test_pinned

    test_golden.write_files(inputs)
    (inputs / "ev.csv").write_text(test_pinned.EVIDENCE)
    found = {}
    for case, argv in test_golden.CASES.items():
        argv = [str(inputs / tok[1:-1]) if tok[1:-1] in test_golden.FILES else tok for tok in argv]
        for output in test_golden.OUTPUTS:
            found[f"golden {case}/{output}"] = [*argv, "--output", output]
    pinned = {
        "digest": {name: argv for name, (argv, *_) in test_pinned.DIGESTS.items()},
        "rerun": test_pinned.RERUNS,
        "strict": test_pinned.STRICT,
        "version": {name: [tok.format(evidence=inputs / "ev.csv") for tok in argv] + ["--output", "json"]
                    for name, argv in test_pinned.COMMANDS.items()},
    }
    for kind, argvs in pinned.items():
        for name, argv in argvs.items():
            if argv not in found.values():
                found[f"pinned {kind} {name}"] = argv
    return {name: (argv, argv[argv.index("--output") + 1]) for name, argv in found.items()}


def run(src: Path, argv: list, cwd: Path) -> tuple[int, bytes, bytes]:
    env = dict(os.environ, PYTHONPATH=str(src))
    child = subprocess.run([sys.executable, "-m", "pipeuq.cli", *argv], env=env, cwd=cwd, capture_output=True)
    return child.returncode, child.stdout, child.stderr


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", argv[0], "src"],
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "rev", filter="data")
        trees = (tmp / "rev" / "src", ROOT / "src")
        (tmp / "inputs").mkdir()
        differ = 0
        found = cases(tmp / "inputs")
        for name, (case, output) in found.items():
            (old_code, old, old_err), (new_code, new, new_err) = (run(src, case, tmp) for src in trees)
            if old_code or new_code:
                lines = [f"exit {old_code} at {argv[0]}, {new_code} here",
                         *(f"  {err.decode().strip()}" for err in (old_err, new_err) if err)]
            else:
                lines = describe(old, new, output)
            differ += lines != ["identical"]
            print(f"{name}: {lines[0]}", *lines[1:], sep="\n", flush=True)
    print("every case identical" if not differ else f"{differ} of {len(found)} cases differ")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
