#!/usr/bin/env python3
"""Write tests/golden.json: sha256 digests of the CLI's output bytes on the fixture corpus.

The corpus is ``make_fixtures``' (every synthetic generator at 256²). Per image:

- ``input/<image>.pgm``: the fixture itself, generated at test time with numpy's
  ``sin``, ``exp``, ``hypot`` and ``Generator.normal``, which numpy does not
  promise bit for bit across versions and CPUs;
- ``segment --levels n`` for n in 3, 9, 15, in both replacement modes: the
  PGM, and the report with its ``elapsed_ms`` line removed;
- ``sweep --max-levels n --epsilon 1e-6`` for the same n: the CSV without its
  ``elapsed_ms`` column;
- ``otsu --classes 2|3|4 --report``: the report (its thresholds and the
  ``repr`` of its criterion) with its ``elapsed_ms`` line removed.

``tests/test_golden.py`` recomputes the digests with :func:`digests` and
compares them with the file, so tier-1 fails when any of these bytes changes
on any platform, and says first whether an input moved. Regenerate the file
only for an intended output change:

    PYTHONPATH=src python scripts/make_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

from make_fixtures import write_fixtures
from mvthresh.cli import main
from mvthresh.segmentation import Replacement

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden.json"
LEVELS = (3, 9, 15)
_ELAPSED_LINE = re.compile(rb'\n *"elapsed_ms": [^\n]*')


def _run(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"mvthresh {' '.join(argv)} exited {code}")


def _without_elapsed(report: bytes) -> bytes:
    stripped, count = _ELAPSED_LINE.subn(b"", report)
    if count != 1:
        raise ValueError(f"expected one elapsed_ms line, found {count}")
    return stripped


def _without_last_column(table: bytes) -> bytes:
    return b"\r\n".join(row.rsplit(b",", 1)[0] for row in table.split(b"\r\n"))


def digests(workdir: Path) -> dict[str, str]:
    """Run the corpus in ``workdir`` and map each output's name to its sha256.

    The inputs are named relative to ``workdir`` (the process runs there
    meanwhile), so the reports' ``input_path`` is the same on every machine.
    """
    out: dict[str, bytes] = {}
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        for path in write_fixtures(Path("corpus")):
            image = path.as_posix()
            out[f"input/{path.name}"] = path.read_bytes()
            for n in LEVELS:
                for mode in Replacement:
                    key = f"segment/{path.stem}/n{n}/{mode.value}"
                    _run("segment", "--input", image, "--levels", str(n),
                         "--replacement", mode.value, "--output", "q.pgm", "--report", "r.json")
                    out[f"{key}.pgm"] = Path("q.pgm").read_bytes()
                    out[f"{key}.json"] = _without_elapsed(Path("r.json").read_bytes())
                _run("sweep", "--input", image, "--max-levels", str(n),
                     "--epsilon", "1e-6", "--csv", "s.csv")
                out[f"sweep/{path.stem}/n{n}.csv"] = _without_last_column(Path("s.csv").read_bytes())
            for classes in (2, 3, 4):
                _run("otsu", "--input", image, "--classes", str(classes), "--report", "o.json")
                out[f"otsu/{path.stem}/k{classes}.json"] = _without_elapsed(Path("o.json").read_bytes())
    finally:
        os.chdir(previous)
    return {name: hashlib.sha256(data).hexdigest() for name, data in out.items()}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        table = digests(Path(scratch))
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {GOLDEN}")
