"""Benchmark of the mvthresh CLI: one closed-loop client, in-process.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload segment_large --seed 0 --seconds 24 --trace 0

Each round calls ``mvthresh.cli.main`` once per operation of the workload,
one call in flight, and checks every output (``checks.py``). Rounds repeat
until ``--seconds`` have passed. ``--trace 0`` reports the end-to-end
metrics, with each wall time scaled to the reference VM's speed by the gauge
readings taken just before and just after the call (``speed.py``);
``--trace 1`` pairs each traced call with a plain one and reports
the per-layer metrics (``tracing.py``). Inputs are generated from ``--seed`` in a
separate process (``inputs.py``), so their cost is in no metric. The last
stdout line is the JSON result; the line before it holds the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from checks import CheckFailed, check_otsu, check_segment, check_sweep, require
from speed import SpeedGauge
from tracing import MODULES, PIXEL_PASSES, Tracer

HERE = Path(__file__).resolve().parent
WORKLOADS = ("segment_large", "sweep_small", "otsu_exhaustive", "ingest_p2")
DEFAULT_SEED = 0
SETUP_REPEATS = 7
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
TAIL_BLOCK = 100  # consecutive samples per block of the tail estimate
GAUGE_EVERY = 0.2  # seconds between speed-gauge readings in a plain round


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _env_with_src(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def make_inputs(workload: str, seed: int, work: Path, src: Path) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "inputs.py"), workload, str(seed), str(work)],
        env=_env_with_src(src), check=True,
    )
    return json.loads((work / "manifest.json").read_text(encoding="utf-8"))


def setup_seconds(src: Path, cwd: Path) -> float:
    """Wall seconds for a fresh interpreter to import mvthresh and its CLI."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import mvthresh, mvthresh.cli"],
                   env=_env_with_src(src), cwd=cwd, check=True)
    return time.perf_counter() - start


def _getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, check=True)
        return int(out.stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        return None


def _quartiles(values) -> list[float]:
    values = list(values)
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


class Bench:
    """Runs a workload's operations through the CLI and checks each output."""

    def __init__(self, manifest: dict):
        self.ops = manifest["ops"]
        self.tracer = Tracer()
        self.gauge: SpeedGauge | None = None  # made by measure(), which scales by it
        self.readings: list[float] = []
        self._read_at = -float("inf")
        self.attempted = 0
        self.failed = 0
        self.first_error: str | None = None
        self.digests: list[str | None] = [None] * len(self.ops)
        self.op_calls = [0] * len(self.ops)
        self._truth: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def truth(self, op: dict) -> tuple[np.ndarray, np.ndarray]:
        """The generator's raster for the op's input, and its histogram."""
        if op["truth"] not in self._truth:
            raster = np.load(op["truth"])
            self._truth[op["truth"]] = (raster, np.bincount(raster.ravel(), minlength=256))
        return self._truth[op["truth"]]

    def run_op(self, index: int, traced: bool):
        """One checked CLI call; returns (seconds, passed its checks, trace or None)."""
        op = self.ops[index]
        main = sys.modules["mvthresh.cli"].main
        out, err = io.StringIO(), io.StringIO()
        self.tracer.last_image = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.tracer.call("cli.main", main, op["argv"]) if traced else main(op["argv"])
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
            except Exception as exc:  # a crash is a failed call, not a benchmark crash
                code = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        trace = self.tracer.collect() if traced else None
        decoded = self.tracer.last_image if traced else None
        passed = self.check(index, code, out.getvalue(), err.getvalue(), decoded)
        return elapsed, passed, trace

    def check(self, index: int, code, stdout: str, stderr: str, decoded=None) -> bool:
        """Check one call's outputs; a failure is counted and the first one kept."""
        op = self.ops[index]
        self.attempted += 1
        self.op_calls[index] += 1
        try:
            require(code == 0, f"exit {code}: {stderr.strip()}")
            raster, hist = self.truth(op)
            if decoded is not None:
                require(np.array_equal(decoded.as_array(), raster),
                        "decoded input differs from its raster")
            if op["cmd"] == "segment":
                result = check_segment(op, stdout, raster, hist)
            elif op["cmd"] == "sweep":
                result = check_sweep(op, stdout)
            else:
                result = check_otsu(op, stdout, hist)
        except Exception as exc:  # CheckFailed, or an output too broken to parse
            self.failed += 1
            if self.first_error is None:
                kind = "" if isinstance(exc, CheckFailed) else f"{type(exc).__name__}: "
                self.first_error = f"op {index} ({op['argv'][0]}): {kind}{exc}"
            return False
        if self.digests[index] is None:
            self.digests[index] = hashlib.sha256(result.encode()).hexdigest()[:16]
        return True

    def warm_up(self) -> None:
        """One traced round: fills caches and checks every input's decode."""
        with self.tracer.installed():
            for index in range(len(self.ops)):
                self.run_op(index, traced=True)

    def read_gauge(self) -> int:
        """Take a gauge reading; returns its index in ``readings``."""
        self.readings.append(self.gauge.read())
        self._read_at = time.perf_counter()
        return len(self.readings) - 1

    def speed_around(self, before: int) -> float:
        """Mean of reading ``before`` and the next one, which bracket a call."""
        return (self.readings[before] + self.readings[before + 1]) / 2.0

    def plain_round(self) -> list[tuple[float, int, bool]]:
        """Per op (wall seconds, index of the last gauge reading before it, passed)."""
        samples = []
        for index in range(len(self.ops)):
            if time.perf_counter() - self._read_at >= GAUGE_EVERY:
                self.read_gauge()
            elapsed, passed, _ = self.run_op(index, traced=False)
            samples.append((elapsed, len(self.readings) - 1, passed))
        return samples

    def measure(self, seconds: float, setup_probe) -> tuple[list, list[tuple[float, float]]]:
        """Plain rounds until ``seconds`` pass, with SETUP_REPEATS set-up probes.

        Returns per round (seconds, gauge speed around the call, passed) per
        op, and per probe (seconds, gauge speed around it). The probes are
        spread between rounds, so they sample the whole run.
        """
        self.gauge = SpeedGauge()
        self.warm_up()
        start = time.perf_counter()
        rounds, setup = [], []

        def probe():
            before = self.read_gauge()
            elapsed = setup_probe()
            self.read_gauge()
            setup.append((elapsed, self.speed_around(before)))

        while not rounds or time.perf_counter() < start + seconds:
            if len(setup) < SETUP_REPEATS * (time.perf_counter() - start) / seconds:
                probe()
            rounds.append(self.plain_round())
        self.read_gauge()  # closes the bracket of the last call
        while len(setup) < SETUP_REPEATS:
            probe()
        rounds = [[(t, self.speed_around(k), ok) for t, k, ok in r] for r in rounds]
        return rounds, setup

    def measure_traced(self, seconds: float):
        """Run each call plain and traced back to back until ``seconds`` pass.

        Returns (traces, probes, ratios): one (op, wall ms, OpTrace) per traced
        call, the n=3 segment probes on the Otsu k=3 inputs, and the traced
        over plain latency of each pair. Which of a pair runs first alternates
        by round, and the pairs sit close in time, so a slow stretch of the
        machine hits both sides alike.
        """
        self.warm_up()
        segmentation = sys.modules["mvthresh.segmentation"]
        traces, probes, ratios = [], [], []
        deadline = time.perf_counter() + seconds
        while not traces or time.perf_counter() < deadline:
            for index, op in enumerate(self.ops):
                plain_first = len(traces) // len(self.ops) % 2 == 0
                if plain_first:
                    plain = self.run_op(index, traced=False)[0]
                with self.tracer.installed():
                    elapsed, passed, trace = self.run_op(index, traced=True)
                    image = self.tracer.last_image
                    if passed and image is not None and op.get("classes") == 4:
                        params = segmentation.SegmentationParams(n=3)
                        segmentation.segment_image(image, params)
                        probes.append(self.tracer.collect())
                if not plain_first:
                    plain = self.run_op(index, traced=False)[0]
                traces.append((op, elapsed * 1000.0, trace))
                ratios.append(elapsed / plain)
        return traces, probes, ratios


def tail_latency(samples: list[float]) -> tuple[float, float, list[float]]:
    """Median over blocks of consecutive samples of each block's tail.

    A block's tail is its highest percentile that keeps TAIL_BEYOND samples
    beyond it. Blocks of TAIL_BLOCK samples or more spread the estimate over
    the whole run instead of the few worst calls of one slow stretch.
    Returns (value, percentile of a block, the block tails).
    """
    blocks = max(1, len(samples) // TAIL_BLOCK)
    size = len(samples) // blocks
    tails = []
    for b in range(blocks):
        block = sorted(samples[b * size : (b + 1) * size if b < blocks - 1 else None])
        tails.append(block[-TAIL_BEYOND - 1] if len(block) > TAIL_BEYOND else block[-1])
    return statistics.median(tails), 100.0 * max(size - TAIL_BEYOND, 0) / size, tails


def end_to_end(rounds, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """The end-to-end metrics, and the spread details for the environment block.

    Every time is the wall time divided by the mean of the gauge readings
    that bracket it, that is, the time at the reference VM's speed. The
    unscaled figures go to the environment block.
    """
    samples = [t * 1000.0 / s for r in rounds for t, s, _ in r]  # in time order
    wall = [t * 1000.0 for r in rounds for t, _, _ in r]
    setup_scaled = [t / s for t, s in setup]
    tail, percentile, tails = tail_latency(samples)
    passed = sum(ok for r in rounds for _, _, ok in r)
    metrics = {
        "ops_per_s": (passed / (sum(samples) / 1000.0), "1/s"),
        "latency_p50_ms": (statistics.median(samples), "ms"),
        "latency_tail_ms": (tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_scaled), "s"),
    }
    details = {
        "rounds": len(rounds),
        "latency_tail": {"percentile": round(percentile, 2), "samples": len(samples),
                         "blocks": len(tails)},
        "quartiles": {
            "ops_per_s_by_round": _quartiles(sum(ok for _, _, ok in r)
                                             / sum(t / s for t, s, _ in r) for r in rounds),
            "latency_ms": _quartiles(samples),
            "tail_ms_by_block": _quartiles(tails),
            "setup_s": _quartiles(setup_scaled),
            "gauge": _quartiles(s for r in rounds for _, s, _ in r),
        },
        "unscaled": {
            "ops_per_s": passed / (sum(wall) / 1000.0),
            "latency_p50_ms": statistics.median(wall),
            "setup_s": statistics.median(t for t, _ in setup),
        },
    }
    return metrics, details


def per_layer(traces, probes, ratios) -> dict:
    """Per-op medians of the traced calls (see README.md for each metric's use)."""

    def median(values) -> float:
        values = list(values)
        return float(statistics.median(values)) if values else 0.0

    def over_callers(name: str, attr: str) -> float:
        """Median over the calls that reach ``name`` at least once."""
        return median(getattr(t, attr)[name] for _, _, t in traces if t.calls.get(name))

    m = {}
    for name in ("image.read_pgm", "image.compute_histogram", "image.write_pgm",
                 "stats.range_stats", "stats.weighted_mean", "segmentation.segment",
                 "segmentation.apply_mapping", "segmentation.auto_select_n",
                 "quality.mse", "quality.psnr", "otsu.k1", "otsu.k2", "otsu.k3"):
        m[f"{name}.self_ms"] = (over_callers(name, "self_ms"), "ms")
    for name in ("image.compute_histogram", "stats.range_stats", "stats.weighted_mean",
                 "segmentation.apply_mapping", "quality.mse"):
        m[f"{name}.calls"] = (over_callers(name, "calls"), "count")
    m["image.read_pgm.bytes"] = (median(t.read_bytes for _, _, t in traces if t.read_bytes), "B")
    m["segmentation.early_stop_ratio"] = (
        sum(t.early_stop for _, _, t in traces) / len(traces), "ratio")
    for cmd in ("segment", "sweep", "otsu"):
        m[f"cli.{cmd}.self_ms"] = (
            median(t.module_ms("cli") for op, _, t in traces if op["cmd"] == cmd), "ms")
    m["cli.pixel_passes"] = (
        median(sum(t.calls.get(name, 0) for name in PIXEL_PASSES) for _, _, t in traces),
        "count")
    for module in MODULES:
        m[f"{module}.share"] = (median(t.module_ms(module) / wall for _, wall, t in traces),
                                "ratio")
    m["trace.overhead_pct"] = (100.0 * (statistics.median(ratios) - 1.0), "%")

    # The paper's claim: exhaustive Otsu k=3 against the n=3 pipeline on the
    # same images, both bases given, over the pipeline and over the cuts alone.
    pipeline = median(sum(p.self_ms.values()) for p in probes)
    cuts = median(p.self_ms["segmentation.segment"] + p.module_ms("stats") for p in probes)
    otsu = m["otsu.k3.self_ms"][0]
    m["paper.segment_n3_ms"] = (pipeline, "ms")
    m["paper.segment_n3_cuts_ms"] = (cuts, "ms")
    m["paper.otsu_k3_over_pipeline"] = (otsu / pipeline if pipeline else 0.0, "x")
    m["paper.otsu_k3_over_cuts"] = (otsu / cuts if cuts else 0.0, "x")
    return m


def digest_status(bench: Bench, manifest: dict, seed: int) -> str:
    """Compare per-op result digests with the ones committed for the default seed."""
    if seed != DEFAULT_SEED:
        return "not checked (seed is not the default)"
    recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    expected = recorded.get(manifest["workload"])
    if expected is None:
        return "not recorded"
    if expected["inputs_sha256"] != manifest["inputs_sha256"]:
        return "not checked (generated inputs differ from the recorded ones)"
    if len(expected["ops"]) != len(bench.digests):
        raise ValueError("digests.json lists another number of calls than the workload")
    # calls that failed a check are counted already and have no digest
    wrong = [i for i, (got, want) in enumerate(zip(bench.digests, expected["ops"]))
             if got is not None and got != want]
    if wrong:
        bench.failed += sum(bench.op_calls[i] for i in wrong)
        bench.first_error = bench.first_error or f"op {wrong[0]} differs from the recorded digest"
        return f"{len(wrong)} op(s) differ"
    return "match"


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "mvthresh" / "__init__.py").is_file():
        print(f"error: {src}/mvthresh not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import mvthresh.cli

    if not Path(mvthresh.cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: mvthresh was imported from {mvthresh.cli.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        manifest = make_inputs(args.workload, args.seed, work, src)
        bench = Bench(manifest)
        if args.trace:
            metrics = per_layer(*bench.measure_traced(args.seconds))
            details = {"missing_hooks": bench.tracer.missing}
        else:
            rounds, setup = bench.measure(args.seconds, lambda: setup_seconds(src, work))
            metrics, details = end_to_end(rounds, setup)
        digest = digest_status(bench, manifest, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    error_rate = bench.failed / bench.attempted
    print(f"{args.workload} seed {args.seed}: {bench.attempted} calls, {bench.failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:14.6g} {unit}")
    print(f"  {'error_rate':<36} {error_rate:14.6g} ratio")
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_per_round": len(bench.ops),
        "attempted": bench.attempted,
        "error_rate": error_rate,
        "first_error": bench.first_error,
        "digest": digest,
        "op_digests": bench.digests,
        "inputs_sha256": manifest["inputs_sha256"],
        **details,
    }
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
