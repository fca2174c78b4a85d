"""Self-test of the benchmark: corrupted outputs must count as failures.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Makes one ``segment`` call and one ``sweep`` call through the benchmark and
checks that their outputs pass. Then it flips one byte of the output PGM,
drops a middle row and, separately, the last row of the sweep CSV, and
checks that each corruption is counted as a failed call. Last, it runs both
modes of ``run.py`` for a moment and checks that they report exactly the
metrics ``BENCHMARK.json`` names. Exits 0 when everything holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def _call(bench: run.Bench, index: int) -> tuple[int, str]:
    main = sys.modules["mvthresh.cli"].main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(bench.ops[index]["argv"])
    return code, out.getvalue()


def _caught(bench: run.Bench, index: int, code: int, stdout: str) -> bool:
    failed = bench.failed
    bench.check(index, code, stdout, "")
    return bench.failed == failed + 1


def corruption_cases(root: Path, work: Path) -> list[tuple[str, bool]]:
    src = root / "src"
    results = []

    segment = run.Bench(run.make_inputs("ingest_p2", 0, work / "p2", src))
    code, stdout = _call(segment, 0)
    results.append(("clean segment output passes", not _caught(segment, 0, code, stdout)))
    output = Path(segment.ops[0]["output"])
    data = bytearray(output.read_bytes())
    data[len(data) // 2] ^= 0x01
    output.write_bytes(bytes(data))
    results.append(("flipped output byte fails", _caught(segment, 0, code, stdout)))

    sweep = run.Bench(run.make_inputs("sweep_small", 0, work / "sweep", src))
    index = next(i for i, op in enumerate(sweep.ops) if op["epsilon"] == "1e-06"
                 and "-" in Path(op["input"]).stem)  # a natural image: several rows
    code, stdout = _call(sweep, index)
    results.append(("clean sweep CSV passes", not _caught(sweep, index, code, stdout)))
    csv_path = Path(sweep.ops[index]["csv"])
    lines = csv_path.read_text(encoding="utf-8").splitlines(keepends=True)
    for name, kept in (("middle", lines[:2] + lines[3:]), ("last", lines[:-1])):
        csv_path.write_text("".join(kept), encoding="utf-8")
        results.append((f"dropped {name} sweep row fails", _caught(sweep, index, code, stdout)))
    return results


def metric_names_match(root: Path) -> list[tuple[str, bool]]:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    results = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            run.main(["--workload", "sweep_small", "--seconds", "0.5", "--trace", str(trace)])
        reported = json.loads(out.getvalue().splitlines()[-1])
        expected = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in reported["metrics"].items()}
        results.append((f"--trace {trace} reports the {key} metrics", got == expected))
        results.append((f"--trace {trace} run is correct", reported["correct"]))
    return results


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import mvthresh.cli  # noqa: F401  (run.main would import it too)

    work = Path(tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=root))
    try:
        (work / "p2").mkdir()
        (work / "sweep").mkdir()
        results = corruption_cases(root, work) + metric_names_match(root)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, ok in results:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
