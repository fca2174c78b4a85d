"""Output checks for the benchmark, written with numpy alone.

Nothing here imports ``mvthresh``: every expectation is rebuilt from the
generator's raster, so a bug in the library cannot hide behind a check that
shares its code. Each ``check_*`` raises ``CheckFailed`` on the first
violation, and otherwise returns a canonical string of the op's results
(timing fields left out) for the default-seed digest.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

PEAK = 255
LEVELS = 256
CSV_TOLERANCE = 1e-4  # the sweep CSV rounds PSNR to 4 decimals
CHUNK = 1 << 20  # pixels per float64 block, so checks stay small next to the CLI


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_p5(path: str) -> np.ndarray:
    """Decode a binary PGM written by the program into a (height, width) array."""
    data = Path(path).read_bytes()
    header = re.match(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s", data)
    require(header is not None, f"{path}: not a P5 file")
    width, height, maxval = (int(g) for g in header.groups())
    require(maxval == PEAK, f"{path}: maxval {maxval}")
    raster = data[header.end() :]
    require(len(raster) == width * height, f"{path}: raster is not {width}x{height}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stdout_thresholds(stdout: str) -> list[int]:
    for line in stdout.splitlines():
        if line.startswith("thresholds:"):
            return [int(t) for t in line.split(":", 1)[1].split(",")]
    raise CheckFailed("stdout has no thresholds line")


def lut_from_classes(classes: list[tuple[int, int, int]]) -> np.ndarray:
    """The 256-entry table of a class list that must tile [0, 255]."""
    lut = np.empty(LEVELS, dtype=np.uint8)
    position = 0
    for lo, hi, value in classes:
        require(lo == position and lo <= hi, f"classes do not tile [0,255] at {lo}")
        require(lo <= value <= hi, f"value {value} outside its class [{lo},{hi}]")
        lut[lo : hi + 1] = value
        position = hi + 1
    require(position == LEVELS, "classes stop before 255")
    return lut


def quality64(truth: np.ndarray, out: np.ndarray) -> tuple[float, float]:
    """MSE and PSNR recomputed in float64 (exact for 8-bit rasters of this size)."""
    a, b = truth.reshape(-1), out.reshape(-1)
    total = 0.0
    for start in range(0, a.size, CHUNK):
        d = a[start : start + CHUNK].astype(np.float64) - b[start : start + CHUNK]
        total += float(np.square(d).sum())  # no BLAS call, so no helper threads
    mse = total / a.size
    return mse, (math.inf if mse == 0.0 else 10.0 * math.log10(PEAK * PEAK / mse))


def _close(a: float, b: float, rel: float) -> bool:
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


def check_segment(op: dict, stdout: str, truth: np.ndarray, hist: np.ndarray) -> str:
    report = json.loads(Path(op["report"]).read_text(encoding="utf-8"))
    require(report["params"]["levels"] == op["levels"], "report has the wrong levels")
    require(report["params"]["replacement"] == op["replacement"], "report has the wrong mode")
    thresholds = [int(t) for t in report["thresholds"]]
    require(all(0 <= t <= PEAK for t in thresholds), "threshold outside [0,255]")
    require(all(a < b for a, b in zip(thresholds, thresholds[1:])), "thresholds not increasing")
    require(len(thresholds) == report["effective_n"] <= op["levels"], "bad effective_n")
    require(stdout_thresholds(stdout) == thresholds, "stdout and report thresholds differ")

    classes = [(int(c["lo"]), int(c["hi"]), int(c["value"])) for c in report["classes"]]
    lut = lut_from_classes(classes)
    weights = np.arange(LEVELS, dtype=np.int64) * hist
    for lo, hi, value in classes:
        s0, s1 = int(hist[lo : hi + 1].sum()), int(weights[lo : hi + 1].sum())
        midpoint = op["replacement"] == "midpoint" or s0 == 0
        expected = (lo + hi) // 2 if midpoint else (2 * s1 + s0) // (2 * s0)
        require(value == expected, f"class [{lo},{hi}] maps to {value}, expected {expected}")

    out = read_p5(op["output"])
    require(out.shape == truth.shape, "output has the wrong size")
    require(np.array_equal(out, lut[truth]), "output pixels differ from lut[input]")
    mse, psnr = quality64(truth, out)
    quality = report["quality"]
    require(float(quality["mse"]) == mse, f"reported mse {quality['mse']} != {mse}")
    reported = math.inf if quality["psnr_db"] == "inf" else float(quality["psnr_db"])
    require(_close(reported, psnr, 1e-12), f"reported psnr {reported} != {psnr}")
    return json.dumps([thresholds, classes, _sha(out.tobytes())])


def check_sweep(op: dict, stdout: str) -> str:
    """The CSV rows are 3, 5, 7, ... and end exactly where the epsilon rule stops."""
    with open(op["csv"], newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    require(rows and rows[0] == ["n", "psnr_db", "elapsed_ms"], "bad CSV header")
    rows = rows[1:]
    require(rows, "sweep CSV has no rows")
    ns = [int(r[0]) for r in rows]
    require(ns == list(range(3, 3 + 2 * len(ns), 2)), f"sweep rows skip a level: {ns}")
    values = [math.inf if r[1] == "inf" else float(r[1]) for r in rows]
    require(all(float(r[2]) >= 0.0 for r in rows), "negative elapsed_ms")
    epsilon, n_max = float(op["epsilon"]), 15
    require(ns[-1] <= n_max, "sweep went past --max-levels")

    chosen: set[int] = set()  # the values the rule allows for the last row
    for i, (n, value) in enumerate(zip(ns, values)):
        last = i == len(ns) - 1
        if math.isinf(value):
            require(last, f"sweep continued after an infinite PSNR at n={n}")
            chosen = {n}
            continue
        gain = value - values[i - 1] if i else math.inf
        # a gain within CSV rounding of epsilon may have gone either way
        require(last or gain >= epsilon - CSV_TOLERANCE, f"sweep did not stop at n={n}")
        if last:
            if gain < epsilon + CSV_TOLERANCE:
                chosen.add(ns[i - 1])
            if n == n_max and gain >= epsilon - CSV_TOLERANCE:
                chosen.add(n_max)
    require(bool(chosen), f"sweep stopped at n={ns[-1]} without reason")
    printed = [line for line in stdout.splitlines() if line.startswith("chosen_n:")]
    require(len(printed) == 1, "stdout has no chosen_n line")
    require(int(printed[0].split(":")[1]) in chosen, f"{printed[0]} breaks the epsilon rule")
    return json.dumps([printed[0], [r[:2] for r in rows]])


def between_class_variance(hist: np.ndarray, thresholds: list[int]) -> float:
    counts = np.concatenate(([0], np.cumsum(hist))).astype(np.float64)
    sums = np.concatenate(([0], np.cumsum(np.arange(LEVELS) * hist))).astype(np.float64)
    total, mean = counts[-1], sums[-1] / counts[-1]
    bounds = [-1, *thresholds, PEAK]
    acc = 0.0
    for lo, hi in zip(bounds, bounds[1:]):
        c = counts[hi + 1] - counts[lo + 1]
        if c:
            mu = (sums[hi + 1] - sums[lo + 1]) / c
            acc += c / total * (mu - mean) ** 2
    return acc


def check_otsu(op: dict, stdout: str, hist: np.ndarray) -> str:
    """Criterion recomputed, and no single threshold moved by one does better."""
    report = json.loads(Path(op["report"]).read_text(encoding="utf-8"))
    ts = [int(t) for t in report["thresholds"]]
    require(len(ts) == op["classes"] - 1, "wrong number of thresholds")
    require(all(0 <= t < PEAK for t in ts), "threshold outside [0,254]")
    require(all(a < b for a, b in zip(ts, ts[1:])), "thresholds not increasing")
    require(stdout_thresholds(stdout) == ts, "stdout and report thresholds differ")
    criterion = float(report["criterion"])
    own = between_class_variance(hist, ts)
    require(_close(criterion, own, 1e-9), f"criterion {criterion} != recomputed {own}")
    for i in range(len(ts)):
        for step in (-1, 1):
            moved = ts[:i] + [ts[i] + step] + ts[i + 1 :]
            if all(0 <= a < b for a, b in zip([-1, *moved], [*moved, PEAK])):
                better = between_class_variance(hist, moved)
                require(better <= criterion * (1 + 1e-9), f"{moved} beats {ts}")
    return json.dumps([ts, repr(criterion)])
