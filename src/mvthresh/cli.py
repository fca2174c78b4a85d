"""Command-line front end: segment images, sweep PSNR vs n, Otsu, benchmark.

Exit codes: 0 success; 1 an unreadable or malformed input file, or any other
``OSError``, such as an ``--output``, ``--report`` or ``--csv`` that cannot be
written; 2 any flag value the library rejects (``main`` maps its ``ValueError``
to exit 2).
All output is deterministic for identical inputs; only timings vary.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import errno
import functools
import io
import json
import os
import stat
import sys
from collections.abc import Sequence
from pathlib import Path

from .image import GrayImage, PgmError, _p5_header, compute_histogram, read_pgm
from .otsu import otsu_multilevel_exhaustive
from .quality import format_db, median_elapsed_ms, psnr_from_mse, psnr_from_mse_exact, timed
from .segmentation import Replacement, SegmentationParams, auto_select_n, segment_image

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2


def _parse_kappa_schedule(text: str) -> tuple[tuple[float, float], ...]:
    """Parse ``k1:k2,k1:k2,...`` into per-pass kappa pairs."""
    pairs = []
    for chunk in text.split(","):
        try:
            k1, k2 = map(float, chunk.split(":"))
        except ValueError:
            raise ValueError(f"bad kappa schedule entry {chunk!r}, expected k1:k2") from None
        pairs.append((k1, k2))
    return tuple(pairs)


def _segmentation_params(args) -> SegmentationParams:
    if args.kappa_schedule is not None:
        schedule = _parse_kappa_schedule(args.kappa_schedule)
    else:
        schedule = ((args.kappa, args.kappa),)
    return SegmentationParams(
        n=args.levels,
        kappa_schedule=schedule,
        replacement=args.replacement,
    )


def _load_image(path: str) -> GrayImage:
    with io.FileIO(path) as fh:  # unbuffered: one read of the whole file
        return read_pgm(fh.readall())


# libc's fallocate(2), not os.posix_fallocate: where a file system cannot
# preallocate, fallocate fails at once, while glibc's posix_fallocate writes a
# byte into every 4 KiB block instead, which costs more than the flush it was
# meant to spare. Linux only, where off_t is a C long.
_fallocate = getattr(ctypes.CDLL(None), "fallocate", None) if sys.platform == "linux" else None
if _fallocate is not None:
    _fallocate.argtypes = (ctypes.c_int, ctypes.c_int, ctypes.c_long, ctypes.c_long)
    _fallocate.restype = ctypes.c_int


def _replace_files(files: dict[str, Sequence]) -> None:
    """Write each path's byte chunks to a file beside it, then rename each into place.

    A path that exists and is no regular file (a directory, a FIFO, a device)
    is rejected before anything is written; a symlink to a regular file is
    replaced by the file. A temporary's name has 26 bytes whatever its
    target's, so every target name up to NAME_MAX can be written. Every file
    is written in full before any is replaced, so a failure before the
    renames keeps every old file. A rename that fails after others have
    succeeded leaves those paths replaced and its own and later paths as they
    were. Either way no temporary file is left, and the error names the path
    asked for, not its temporary.

    Each temporary is preallocated to its byte count by ``fallocate(2)``
    before it is written, so the chunks must be a sequence (they are read
    twice). ext4 then has no delayed allocation to force out when the rename
    replaces an existing file, which made each replacing rename of a 4 MiB
    output wait 3-4 ms on the disk. Nothing is fsynced, so after a power loss
    within the kernel's writeback delay (about 30 s by default) a replaced
    file can keep its full length and read as zeros, where ext4's rename rule
    would have left the old file or the new one. A failed preallocation is
    only a lost hint: the write after it reports any real failure, such as a
    full disk.
    """
    temps = {}
    try:
        for path, chunks in files.items():
            if not isinstance(chunks, Sequence):  # a one-shot iterable would be read empty
                raise TypeError(f"chunks for {path} must be a sequence, got {type(chunks).__name__}")
            if os.path.isdir(path):  # its rename would fail after the others replaced theirs
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            if os.path.exists(path) and not os.path.isfile(path):  # a rename would replace it
                raise FileExistsError(errno.EEXIST, "Not a regular file", path)
        for path, chunks in files.items():
            temp = Path(path).parent / f".mvthresh-{os.urandom(6).hex()}.tmp"
            with open(temp, "xb") as fh:
                temps[path] = temp
                size = sum(memoryview(chunk).nbytes for chunk in chunks)
                if size and _fallocate is not None:
                    _fallocate(fh.fileno(), 0, 0, size)  # its -1 on failure is ignored
                fh.writelines(chunks)
        for path, temp in temps.items():
            os.replace(temp, path)
    except BaseException as exc:
        for temp in temps.values():
            temp.unlink(missing_ok=True)
        if isinstance(exc, OSError):  # named by the path asked for, not its temporary
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _print_thresholds(thresholds) -> None:
    print("thresholds:", ", ".join(str(t) for t in thresholds))


def cmd_segment(args) -> int:
    params = _segmentation_params(args)
    if args.report and os.path.realpath(args.report) == os.path.realpath(args.output):
        raise ValueError(f"--report {args.report} would overwrite --output {args.output}")
    image = _load_image(args.input)
    (result, quantized), elapsed = timed(segment_image, image, params)
    err = result.squared_error / image.pixels.size
    files = {args.output: (_p5_header(quantized), quantized.pixels)}
    if args.report:
        report = {
            "input_path": args.input,
            "params": params.to_dict(),
            "thresholds": list(result.thresholds),
            "classes": [{"lo": iv.lo, "hi": iv.hi, "value": value} for iv, value in result.classes],
            "effective_n": result.effective_n,
            "quality": {
                "mse": err, "psnr_db": format_db(psnr_from_mse_exact(err)), "elapsed_ms": elapsed
            },
        }
        files[args.report] = (json.dumps(report, indent=2).encode("utf-8"),)
    _replace_files(files)

    _print_thresholds(result.thresholds)
    print(f"effective_n: {result.effective_n}")
    print(f"psnr_db: {format_db(psnr_from_mse(err), 2)}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    image = _load_image(args.input)
    chosen, sweep = auto_select_n(
        image, SegmentationParams(n=3), epsilon=args.epsilon, n_max=args.max_levels
    )
    # the bytes csv.writer gives: no field is quoted, as each is a number or "inf"
    rows = (f"{point.n},{format_db(point.psnr_db, 4)},{point.elapsed_ms:.3f}\r\n" for point in sweep)
    data = "".join(("n,psnr_db,elapsed_ms\r\n", *rows)).encode("ascii")
    # Overwritten in place, then cut to length: ext4 flushes a file at close
    # only after it was truncated to zero, which O_TRUNC would do. Only a
    # regular file is cut (ftruncate fails on /dev/null).
    try:
        fd = os.open(args.csv, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        with open(fd, "wb") as fh:
            fh.write(data)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()
    except OSError as exc:  # a failed write names the path, as _replace_files does
        raise OSError(exc.errno, exc.strerror, args.csv) from None
    print(f"chosen_n: {chosen}")
    return EXIT_OK


def cmd_otsu(args) -> int:
    if not 2 <= args.classes <= 4:
        raise ValueError(f"--classes must be in [2, 4], got {args.classes}")
    image = _load_image(args.input)
    hist = compute_histogram(image)
    result, elapsed = timed(otsu_multilevel_exhaustive, hist, args.classes - 1)
    if args.report:
        payload = {
            "input_path": args.input,
            "classes": args.classes,
            "thresholds": list(result.thresholds),
            "criterion": result.criterion,
            "elapsed_ms": elapsed,
        }
        _replace_files({args.report: (json.dumps(payload, indent=2).encode("utf-8"),)})
    _print_thresholds(result.thresholds)
    print(f"criterion: {result.criterion:.4f}")
    print(f"elapsed_ms: {elapsed:.3f}")
    return EXIT_OK


def _bench_inputs(entries) -> list[Path]:
    paths: list[Path] = []
    for entry in entries:
        p = Path(entry)
        if p.is_dir():
            paths.extend(sorted(p.glob("*.pgm")))
        else:
            paths.append(p)
    paths = sorted(set(paths))
    if not paths:
        raise ValueError("no input images to benchmark")
    return paths


def _parse_levels_list(text: str) -> list[int]:
    try:
        levels = {int(chunk) for chunk in text.split(",")}
    except ValueError:
        raise ValueError(f"bad --levels list {text!r}") from None
    return sorted(levels)  # rows come out ordered by path, then n


def cmd_bench(args) -> int:
    level_params = [SegmentationParams(n=n) for n in _parse_levels_list(args.levels)]
    paths = _bench_inputs(args.input)
    rows = [["image", "n", "thresholds", "elapsed_ms", "psnr_db"]]
    for path in paths:
        image = _load_image(str(path))
        for params in level_params:
            (result, _), elapsed = median_elapsed_ms(segment_image, image, params)
            value = psnr_from_mse(result.squared_error / image.pixels.size)
            thresholds = " ".join(str(t) for t in result.thresholds)
            rows.append([str(path), params.n, thresholds, f"{elapsed:.3f}", format_db(value, 4)])
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    _replace_files({args.csv: (text.getvalue().encode("utf-8"),)})
    for image, n, _, elapsed_ms, psnr_db in rows[1:]:
        print(f"{image} n={n} {elapsed_ms} ms psnr={psnr_db}")
    return EXIT_OK


@functools.cache  # one per process: building it costs more than a small sweep
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvthresh",
        description="Multilevel grayscale thresholding via recursive mean/variance splits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seg = sub.add_parser("segment", help="segment one image and write the quantized PGM")
    seg.add_argument("--input", required=True)
    seg.add_argument("--levels", type=int, required=True, help="odd number of thresholds")
    kappa_group = seg.add_mutually_exclusive_group()
    kappa_group.add_argument("--kappa", type=float, default=1.0)
    kappa_group.add_argument(
        "--kappa-schedule", default=None, help="per-pass pairs k1:k2,k1:k2,..."
    )
    seg.add_argument(
        "--replacement",
        choices=[mode.value for mode in Replacement],
        default=Replacement.WEIGHTED_MEAN.value,
    )
    seg.add_argument("--output", required=True)
    seg.add_argument("--report", default=None)

    sweep = sub.add_parser("sweep", help="PSNR vs n sweep with automatic n selection")
    sweep.add_argument("--input", required=True)
    sweep.add_argument("--max-levels", type=int, required=True)
    sweep.add_argument("--epsilon", type=float, required=True, help="saturation gain in dB")
    sweep.add_argument("--csv", required=True)

    otsu = sub.add_parser("otsu", help="exhaustive Otsu baseline")
    otsu.add_argument("--input", required=True)
    otsu.add_argument("--classes", type=int, required=True, help="class count in [2, 4]")
    otsu.add_argument("--report", default=None)

    bench = sub.add_parser("bench", help="median-of-20 timing table over a corpus")
    bench.add_argument("--input", nargs="+", required=True, help="PGM files or directories")
    bench.add_argument("--levels", default="3,5,7,9")
    bench.add_argument("--csv", required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = globals()[f"cmd_{args.command}"]  # looked up per call: a replaced cmd_* runs
    try:
        return command(args)
    except (PgmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # after PgmError, which subclasses it
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
