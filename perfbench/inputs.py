"""Build one workload's input files and operation list from a seed.

Run as its own process so that image generation never counts towards the
measuring process's time or peak memory:

    python3 perfbench/inputs.py WORKLOAD SEED DIR

``mvthresh`` must be importable (``run.py`` puts the checkout's ``src`` on
``PYTHONPATH``). Writes the PGM inputs, one ``.npy`` truth raster per input,
and ``manifest.json`` listing the CLI calls of one round, into DIR. The same
seed always gives the same files and the same list.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from mvthresh import synthetic

SEGMENT_SIZE = 2048  # 4 MiB raster: larger than one core's 2 MiB L2
SMALL_SIZE = 256  # 64 KiB raster: stays in cache
OTSU_SIZE = 512
TINY_EPSILON = "1e-06"  # only a zero or negative PSNR gain stops the sweep
REAL_EPSILON = "0.3"


def _natural(rng: np.random.Generator, size: int, seeded_each: int) -> list[tuple[str, np.ndarray]]:
    """The two seedless generators plus ``seeded_each`` draws of each seeded one."""
    images = [
        ("gradient_sky", synthetic.gradient_sky(size).as_array()),
        ("vignette", synthetic.vignette(size).as_array()),
    ]
    for _ in range(seeded_each):
        for name in ("soft_blobs", "film_grain"):
            gen_seed = int(rng.integers(0, 2**31))
            image = synthetic.GENERATORS[name](size=size, seed=gen_seed)
            images.append((f"{name}-{gen_seed}", image.as_array()))
    return images


def _degenerate(rng: np.random.Generator, size: int) -> list[tuple[str, np.ndarray]]:
    """Constant, two-level and narrow-range rasters: the early-stop paths."""
    shape = (size, size)
    a, b = sorted(rng.choice(256, size=2, replace=False))
    base = int(rng.integers(0, 252))
    return [
        ("constant", np.full(shape, int(rng.integers(0, 256)), dtype=np.uint8)),
        ("two_level", np.where(rng.random(shape) < rng.uniform(0.2, 0.8), a, b).astype(np.uint8)),
        ("narrow_range", rng.integers(base, base + 4, size=shape).astype(np.uint8)),
    ]


def _segment_params(rng: np.random.Generator) -> dict:
    if rng.random() < 0.5:
        kappa = ["--kappa", f"{rng.uniform(0.6, 1.4):.2f}"]
    else:
        pairs = [
            f"{rng.uniform(0.6, 1.4):.2f}:{rng.uniform(0.6, 1.4):.2f}"
            for _ in range(int(rng.integers(1, 4)))
        ]
        kappa = ["--kappa-schedule", ",".join(pairs)]
    return {
        "levels": int(rng.choice(np.arange(3, 16, 2))),
        "kappa": kappa,
        "replacement": str(rng.choice(["weighted-mean", "midpoint"])),
    }


def _p5(pixels: np.ndarray) -> bytes:
    h, w = pixels.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + pixels.tobytes()


def _p2(pixels: np.ndarray, rng: np.random.Generator) -> bytes:
    """ASCII PGM with header comments, mixed whitespace and ragged line wrapping."""
    h, w = pixels.shape
    header = (
        f"P2\n# plain PGM, {w}x{h}\n#  mixed separators follow\r\n"
        f"{w}\t {h}\n# maxval on its own line\n255\n"
    )
    seps = np.array([" ", "  ", "\t", " \t"])[rng.integers(0, 4, size=pixels.size)]
    wrap = np.cumsum(rng.integers(6, 24, size=pixels.size))
    wrap = wrap[wrap < pixels.size]
    seps[wrap - 1] = np.array(["\n", "\r\n", " \n"])[rng.integers(0, 3, size=wrap.size)]
    seps[-1] = "\n"
    body = "".join(f"{v}{s}" for v, s in zip(pixels.ravel().tolist(), seps.tolist()))
    return (header + body).encode("ascii")


def build(workload: str, seed: int, out: Path) -> dict:
    """Write the inputs of ``workload`` into ``out``; return the manifest."""
    rng = np.random.default_rng([seed, sum(map(ord, workload))])
    inputs: list[tuple[str, np.ndarray, bytes]] = []  # (file stem, truth, file bytes)
    ops: list[dict] = []

    def add_input(stem: str, pixels: np.ndarray, data: bytes) -> str:
        inputs.append((stem, pixels, data))
        return stem

    if workload == "segment_large":
        stems = [add_input(name, px, _p5(px)) for name, px in _natural(rng, SEGMENT_SIZE, 1)]
        ops = [{"cmd": "segment", "input": s, **_segment_params(rng)} for s in stems * 3]
    elif workload == "ingest_p2":
        stems = [add_input(name, px, _p2(px, rng)) for name, px in _natural(rng, SMALL_SIZE, 1)]
        ops = [{"cmd": "segment", "input": s, **_segment_params(rng)} for s in stems * 2]
    elif workload == "sweep_small":
        natural = [add_input(n, px, _p5(px)) for n, px in _natural(rng, SMALL_SIZE, 5)]
        odd = [add_input(n, px, _p5(px)) for n, px in _degenerate(rng, SMALL_SIZE)]
        ops = [{"cmd": "sweep", "input": s, "epsilon": TINY_EPSILON} for s in natural + odd]
        ops += [
            {"cmd": "sweep", "input": str(s), "epsilon": REAL_EPSILON}
            for s in rng.choice(natural, size=2, replace=False)
        ]
    elif workload == "otsu_exhaustive":
        # k=3 (four classes) on every image; one k=1 and one k=2 call ride along
        stems = [add_input(n, px, _p5(px)) for n, px in _natural(rng, OTSU_SIZE, 2)]
        ops = [{"cmd": "otsu", "input": s, "classes": 4} for s in stems]
        ops += [{"cmd": "otsu", "input": str(s), "classes": c}
                for s, c in zip(rng.choice(stems, size=2, replace=False), (2, 3))]
    else:
        raise ValueError(f"unknown workload {workload!r}")

    digest = hashlib.sha256()
    suffix = ".p2.pgm" if workload == "ingest_p2" else ".pgm"
    for stem, pixels, data in inputs:
        (out / f"{stem}{suffix}").write_bytes(data)
        np.save(out / f"{stem}.npy", pixels)
        digest.update(data)

    order = [ops[i] for i in rng.permutation(len(ops))]
    for index, op in enumerate(order):
        stem = op.pop("input")
        op["input"] = str(out / f"{stem}{suffix}")
        op["truth"] = str(out / f"{stem}.npy")
        op["output"] = str(out / f"out{index}.pgm")
        op["report"] = str(out / f"report{index}.json")
        op["csv"] = str(out / f"sweep{index}.csv")
        op["argv"] = _argv(op)
    return {"workload": workload, "seed": seed, "inputs_sha256": digest.hexdigest(), "ops": order}


def _argv(op: dict) -> list[str]:
    if op["cmd"] == "segment":
        return ["segment", "--input", op["input"], "--levels", str(op["levels"]),
                *op["kappa"], "--replacement", op["replacement"],
                "--output", op["output"], "--report", op["report"]]
    if op["cmd"] == "sweep":
        return ["sweep", "--input", op["input"], "--max-levels", "15",
                "--epsilon", op["epsilon"], "--csv", op["csv"]]
    return ["otsu", "--input", op["input"], "--classes", str(op["classes"]),
            "--report", op["report"]]


if __name__ == "__main__":
    name, seed_text, directory = sys.argv[1:4]
    manifest = build(name, int(seed_text), Path(directory))
    Path(directory, "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
