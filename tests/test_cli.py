import csv
import errno
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import mvthresh
import mvthresh.cli as cli_module
import mvthresh.image as image_module
import mvthresh.quality as quality_module
from mvthresh.cli import main
from mvthresh.image import GrayImage, read_pgm, write_pgm
from mvthresh.synthetic import GENERATORS, soft_blobs

from conftest import pgm_bytes
from helpers import decimal_psnr

EXIT_OK, EXIT_IO, EXIT_USAGE = 0, 1, 2


@pytest.fixture()
def blob_pgm(tmp_path):
    path = tmp_path / "blobs.pgm"
    path.write_bytes(write_pgm(soft_blobs(size=64)))
    return path


@pytest.fixture()
def constant_pgm(tmp_path):
    path = tmp_path / "flat.pgm"
    path.write_bytes(write_pgm(GrayImage(16, 16, np.full(256, 100))))
    return path


def p5_samples(path):
    """The samples of a P5 file, read with numpy alone."""
    data = path.read_bytes()
    width, height = map(int, data.split(maxsplit=3)[1:3])
    return np.frombuffer(data, np.uint8, offset=len(data) - width * height).astype(np.int64)


def two_spike_pgm(tmp_path):
    pixels = np.array([50] * 128 + [200] * 128, dtype=np.uint8)
    path = tmp_path / "spikes.pgm"
    path.write_bytes(write_pgm(GrayImage(16, 16, pixels)))
    return path


class TestSegmentCommand:
    def test_happy_path(self, tmp_path, blob_pgm, capsys):
        out = tmp_path / "out.pgm"
        report = tmp_path / "report.json"
        code = main(
            [
                "segment",
                "--input", str(blob_pgm),
                "--levels", "5",
                "--kappa", "1.0",
                "--output", str(out),
                "--report", str(report),
            ]
        )
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "thresholds:" in stdout and "psnr_db:" in stdout

        quantized = read_pgm(out.read_bytes())
        assert (quantized.width, quantized.height) == (64, 64)
        assert len(set(quantized.pixels.tolist())) <= 6

        parsed = json.loads(report.read_text())
        printed = stdout.split("thresholds:")[1].splitlines()[0]
        assert [int(t) for t in printed.split(",")] == parsed["thresholds"]
        assert parsed["effective_n"] == len(parsed["thresholds"])

    def test_deterministic_output_bytes(self, tmp_path, blob_pgm):
        outs = []
        for name in ("a.pgm", "b.pgm"):
            out = tmp_path / name
            assert main(
                ["segment", "--input", str(blob_pgm), "--levels", "7",
                 "--output", str(out)]
            ) == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_even_levels_rejected(self, tmp_path, blob_pgm, capsys):
        code = main(
            ["segment", "--input", str(blob_pgm), "--levels", "4",
             "--output", str(tmp_path / "x.pgm")]
        )
        assert code == EXIT_USAGE
        assert "odd" in capsys.readouterr().err

    def test_missing_input_is_io_error(self, tmp_path):
        code = main(
            ["segment", "--input", str(tmp_path / "nope.pgm"), "--levels", "3",
             "--output", str(tmp_path / "x.pgm")]
        )
        assert code == EXIT_IO

    def test_corrupt_input_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P9 not an image")
        code = main(
            ["segment", "--input", str(bad), "--levels", "3",
             "--output", str(tmp_path / "x.pgm")]
        )
        assert code == EXIT_IO

    def test_oversized_ascii_header_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "huge.pgm"
        bad.write_bytes(b"P2\n200000 200000\n255\n0 0 0\n")
        start = time.perf_counter()
        code = main(
            ["segment", "--input", str(bad), "--levels", "3",
             "--output", str(tmp_path / "x.pgm")]
        )
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_odd_raster_over_several_pair_blocks(self, tmp_path, capsys):
        # an odd pixel count over several blocks: both pixel passes read
        # byte pairs, and the last pixel goes on its own
        image = GrayImage.from_array(
            np.clip(np.random.default_rng(4).normal(128, 40, (1023, 1025)), 0, 255).astype(np.uint8)
        )
        assert image.pixels.size % 2 and image.pixels.size > 2 * image_module._PAIR_BLOCK
        src, out, report = tmp_path / "big.pgm", tmp_path / "q.pgm", tmp_path / "r.json"
        src.write_bytes(write_pgm(image))
        code = main(
            ["segment", "--input", str(src), "--levels", "9", "--output", str(out),
             "--report", str(report)]
        )
        assert code == EXIT_OK
        run = json.loads(report.read_text(encoding="utf-8"))
        lut = np.empty(256, dtype=np.uint8)
        for c in run["classes"]:
            lut[c["lo"] : c["hi"] + 1] = c["value"]
        quantized = read_pgm(out.read_bytes())
        assert np.array_equal(quantized.pixels, lut[image.pixels])
        assert run["quality"]["mse"] == quality_module.mse(image, quantized)

    def test_quality_never_rescans_pixels(self, tmp_path, blob_pgm, monkeypatch):
        calls = []
        real = quality_module.mse
        for module in (quality_module, cli_module):
            monkeypatch.setattr(
                module, "mse", lambda a, b: calls.append(1) or real(a, b), raising=False
            )
        report = tmp_path / "r.json"
        assert main(
            ["segment", "--input", str(blob_pgm), "--levels", "7",
             "--output", str(tmp_path / "o.pgm"), "--report", str(report)]
        ) == EXIT_OK
        assert calls == []
        quantized = read_pgm((tmp_path / "o.pgm").read_bytes())
        original = read_pgm(blob_pgm.read_bytes())
        assert json.loads(report.read_text())["quality"]["mse"] == real(original, quantized)

    def test_bad_kappa_schedule_rejected(self, tmp_path, blob_pgm):
        code = main(
            ["segment", "--input", str(blob_pgm), "--levels", "5",
             "--kappa-schedule", "1.0:zap", "--output", str(tmp_path / "x.pgm")]
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("kappa", ["0", "-1", "nan", "inf"])
    def test_non_positive_or_non_finite_kappa_rejected(self, tmp_path, blob_pgm, kappa):
        code = main(
            ["segment", "--input", str(blob_pgm), "--levels", "5",
             "--kappa", kappa, "--output", str(tmp_path / "x.pgm")]
        )
        assert code == EXIT_USAGE

    def test_kappa_and_schedule_mutually_exclusive(self, tmp_path, blob_pgm):
        with pytest.raises(SystemExit) as err:
            main(
                ["segment", "--input", str(blob_pgm), "--levels", "5",
                 "--kappa", "1.0", "--kappa-schedule", "1:1",
                 "--output", str(tmp_path / "x.pgm")]
            )
        assert err.value.code == EXIT_USAGE

    def test_kappa_schedule_accepted(self, tmp_path, blob_pgm, capsys):
        code = main(
            ["segment", "--input", str(blob_pgm), "--levels", "5",
             "--kappa-schedule", "1.0:1.2,0.8:0.8",
             "--output", str(tmp_path / "x.pgm")]
        )
        assert code == EXIT_OK

    @pytest.mark.parametrize(
        "flag, large, huge",
        [("--kappa", "1e300", "1e307"), ("--kappa-schedule", "1:1e300", "1:1e308")],
    )
    def test_huge_kappa_clamps_like_a_large_one(
        self, tmp_path, blob_pgm, capsys, flag, large, huge
    ):
        """A cut past the range's end, even an infinite one, clamps to that end."""
        printed = []
        for kappa in (large, huge):
            code = main(
                ["segment", "--input", str(blob_pgm), "--levels", "5", flag, kappa,
                 "--output", str(tmp_path / "x.pgm")]
            )
            assert code == EXIT_OK
            printed.append(capsys.readouterr().out.splitlines()[0])
        assert printed[0].startswith("thresholds:")
        assert printed[1] == printed[0]

    @pytest.mark.parametrize("n", [3, 5, 9, 15])  # glibc's log10 misses vignette's n=5 midpoint
    @pytest.mark.parametrize("stem", [*GENERATORS, "two-pixel"])
    def test_midpoint_replacement_never_beats_weighted_mean(
        self, tmp_path, natural_images, stem, n
    ):
        src = tmp_path / "in.pgm"
        if stem == "two-pixel":
            src.write_bytes(b"P5 2 1 255\n\x07\x80")
        else:
            src.write_bytes(write_pgm(natural_images[stem]))
        values = {}
        for mode in ("weighted-mean", "midpoint"):
            out, report = tmp_path / f"{mode}.pgm", tmp_path / f"{mode}.json"
            assert main(
                ["segment", "--input", str(src), "--levels", str(n),
                 "--replacement", mode,
                 "--output", str(out),
                 "--report", str(report)]
            ) == EXIT_OK
            quality = json.loads(report.read_text())["quality"]
            # the reported scores are the ones the two files give, recomputed without mvthresh
            diff = p5_samples(src) - p5_samples(out)
            err = int((diff * diff).sum()) / diff.size
            assert quality["mse"] == err
            assert (quality["psnr_db"] == "inf") == (err == 0)
            if err:
                assert float(quality["psnr_db"]) == decimal_psnr(err)
            values[mode] = quality["mse"]
        assert values["weighted-mean"] <= values["midpoint"]

    def test_unwritable_report_leaves_no_output(self, tmp_path, blob_pgm, capsys):
        out = tmp_path / "q.pgm"
        code = main(
            ["segment", "--input", str(blob_pgm), "--levels", "5", "--output", str(out),
             "--report", str(tmp_path / "missing" / "r.json")]
        )
        assert code == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "r.json" in err[0]
        assert not out.exists()

    def test_unwritable_report_keeps_the_old_output(self, tmp_path, blob_pgm, capsys):
        out = tmp_path / "q.pgm"
        out.write_bytes(b"an earlier run's output")
        code = main(
            ["segment", "--input", str(blob_pgm), "--levels", "5", "--output", str(out),
             "--report", str(tmp_path / "missing_dir" / "r.json")]
        )
        assert code == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert str(tmp_path / "missing_dir" / "r.json") in err[0]  # not its temporary
        assert out.read_bytes() == b"an earlier run's output"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blobs.pgm", "q.pgm"]

    def test_directory_report_keeps_the_old_output(self, tmp_path, blob_pgm, capsys):
        out = tmp_path / "q.pgm"
        out.write_bytes(b"an earlier run's output")
        (tmp_path / "D").mkdir()
        code = main(
            ["segment", "--input", str(blob_pgm), "--levels", "5", "--output", str(out),
             "--report", str(tmp_path / "D")]
        )
        assert code == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert err[0].endswith(f"Is a directory: {str(tmp_path / 'D')!r}")  # not its temporary
        assert out.read_bytes() == b"an earlier run's output"
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["D", "blobs.pgm", "q.pgm"]

    def test_failed_rename_names_the_output(self, tmp_path, blob_pgm, capsys, monkeypatch):
        def busy(src, dst):
            raise OSError(errno.EBUSY, os.strerror(errno.EBUSY), src, dst)

        out = tmp_path / "q.pgm"
        out.write_bytes(b"an earlier run's output")
        monkeypatch.setattr(os, "replace", busy)
        code = main(["segment", "--input", str(blob_pgm), "--levels", "5", "--output", str(out)])
        assert code == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].endswith(f"{os.strerror(errno.EBUSY)}: {str(out)!r}")
        assert out.read_bytes() == b"an earlier run's output"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blobs.pgm", "q.pgm"]

    def test_failed_second_rename_names_the_report(
        self, tmp_path, blob_pgm, capsys, monkeypatch
    ):
        """The output is already replaced when the report's rename fails; the report is not."""
        real_replace, renamed = os.replace, []

        def second_busy(src, dst):
            if renamed:
                raise OSError(errno.EBUSY, os.strerror(errno.EBUSY), src, dst)
            renamed.append(dst)
            real_replace(src, dst)

        out, report = tmp_path / "q.pgm", tmp_path / "r.json"
        out.write_bytes(b"an earlier run's output")
        report.write_text("an earlier run's report", encoding="utf-8")
        monkeypatch.setattr(os, "replace", second_busy)
        code = main(
            ["segment", "--input", str(blob_pgm), "--levels", "5", "--output", str(out),
             "--report", str(report)]
        )
        assert code == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert err[0].endswith(f"{os.strerror(errno.EBUSY)}: {str(report)!r}")
        assert renamed == [str(out)]
        assert read_pgm(out.read_bytes()).width == 64
        assert report.read_text(encoding="utf-8") == "an earlier run's report"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blobs.pgm", "q.pgm", "r.json"]

    @pytest.mark.parametrize("report", ["q.pgm", "sub/../q.pgm"])
    def test_report_on_the_output_file_rejected(
        self, tmp_path, blob_pgm, capsys, monkeypatch, report
    ):
        """One file cannot hold both, so the run stops before it reads its input."""
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli_module, "_load_image", lambda path: pytest.fail("input read"))
        code = main(
            ["segment", "--input", str(blob_pgm), "--levels", "5", "--output", "q.pgm",
             "--report", report]
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (tmp_path / "q.pgm").exists()

    def test_files_are_replaced_whole(self, tmp_path, blob_pgm):
        out, report, probe = tmp_path / "q.pgm", tmp_path / "r.json", tmp_path / "probe"
        out.write_bytes(b"x" * 100_000)  # longer than the new output
        report.write_text("stale", encoding="utf-8")
        argv = ["segment", "--input", str(blob_pgm), "--levels", "5", "--output", str(out),
                "--report", str(report)]
        assert main(argv) == EXIT_OK
        assert len(out.read_bytes()) == len(b"P5\n64 64\n255\n") + 64 * 64
        assert json.loads(report.read_text(encoding="utf-8"))["effective_n"] == 5
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blobs.pgm", "q.pgm", "r.json"]
        probe.touch()  # a file made the ordinary way: same permissions as the outputs
        assert {p.stat().st_mode for p in (out, report)} == {probe.stat().st_mode}


class TestParserReuse:
    """``main`` builds its parser once per process; no call leaks into the next."""

    def test_kappa_schedule_does_not_outlive_its_call(self, tmp_path, blob_pgm):
        schedules = []
        for flags in (["--kappa-schedule", "0.9:1.1"], ["--kappa", "0.8"]):
            report = tmp_path / "r.json"
            assert main(
                ["segment", "--input", str(blob_pgm), "--levels", "3", *flags,
                 "--output", str(tmp_path / "q.pgm"), "--report", str(report)]
            ) == EXIT_OK
            schedules.append(json.loads(report.read_text())["params"]["kappa_schedule"])
        assert schedules == [[[0.9, 1.1]], [[0.8, 0.8]]]

    def test_rejected_arguments_leave_the_next_call_working(self, tmp_path, blob_pgm, capsys):
        with pytest.raises(SystemExit) as info:
            main(["segment", "--input", str(blob_pgm), "--levels", "3", "--kappa", "1",
                  "--kappa-schedule", "1:1", "--output", str(tmp_path / "q.pgm")])
        assert info.value.code == EXIT_USAGE
        capsys.readouterr()
        assert main(
            ["segment", "--input", str(blob_pgm), "--levels", "3",
             "--output", str(tmp_path / "q.pgm")]
        ) == EXIT_OK
        assert capsys.readouterr().out.startswith("thresholds:")

    def test_replaced_command_runs(self, tmp_path, blob_pgm, monkeypatch):
        argv = ["sweep", "--input", str(blob_pgm), "--max-levels", "5", "--epsilon", "0.3",
                "--csv", str(tmp_path / "s.csv")]
        assert main(argv) == EXIT_OK
        seen = []
        monkeypatch.setattr(cli_module, "cmd_sweep", lambda args: seen.append(args.csv) or 7)
        assert main(argv) == 7
        assert seen == [str(tmp_path / "s.csv")]


class TestSweepCommand:
    def test_natural_image_sweep(self, tmp_path, blob_pgm, capsys):
        out_csv = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--input", str(blob_pgm), "--max-levels", "9",
             "--epsilon", "0.3", "--csv", str(out_csv)]
        )
        assert code == EXIT_OK
        chosen = int(capsys.readouterr().out.split("chosen_n:")[1].strip())
        rows = out_csv.read_text().splitlines()
        assert rows[0] == "n,psnr_db,elapsed_ms"
        ns = [int(r.split(",")[0]) for r in rows[1:]]
        assert ns == sorted(ns) and all(n % 2 == 1 for n in ns)
        assert chosen <= 9

        psnrs = []
        for row in csv.DictReader(out_csv.read_text().splitlines()):
            assert float(row["elapsed_ms"]) >= 0
            psnrs.append(float(row["psnr_db"]))
        # empirical on this corpus (not a universal law): more levels, no worse
        assert psnrs == sorted(psnrs)
        assert all(p > 0 for p in psnrs)

    def test_constant_image_single_inf_row(self, tmp_path, constant_pgm, capsys):
        out_csv = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--input", str(constant_pgm), "--max-levels", "9",
             "--epsilon", "0.3", "--csv", str(out_csv)]
        )
        assert code == EXIT_OK
        assert "chosen_n: 3" in capsys.readouterr().out
        # the whole file, as csv.writer wrote it: \r\n line ends and an unquoted inf
        data = out_csv.read_bytes()
        assert re.fullmatch(rb"n,psnr_db,elapsed_ms\r\n3,inf,\d+\.\d{3}\r\n", data), data

    def test_even_max_levels_rejected(self, tmp_path, blob_pgm):
        code = main(
            ["sweep", "--input", str(blob_pgm), "--max-levels", "8",
             "--epsilon", "0.3", "--csv", str(tmp_path / "s.csv")]
        )
        assert code == EXIT_USAGE

    def test_non_positive_epsilon_rejected(self, tmp_path, blob_pgm):
        code = main(
            ["sweep", "--input", str(blob_pgm), "--max-levels", "9",
             "--epsilon", "0", "--csv", str(tmp_path / "s.csv")]
        )
        assert code == EXIT_USAGE

    def _sweep(self, blob_pgm, out_csv, max_levels="9"):
        return main(
            ["sweep", "--input", str(blob_pgm), "--max-levels", max_levels,
             "--epsilon", "0.3", "--csv", str(out_csv)]
        )

    def test_second_sweep_rewrites_the_same_file(self, tmp_path, blob_pgm):
        out_csv = tmp_path / "sweep.csv"
        assert self._sweep(blob_pgm, out_csv, "15") == EXIT_OK
        inode = out_csv.stat().st_ino
        assert self._sweep(blob_pgm, out_csv, "3") == EXIT_OK
        assert out_csv.stat().st_ino == inode
        assert out_csv.read_text().count("\n") == 2  # header + n=3, no row of the first run
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blobs.pgm", "sweep.csv"]

    def test_longer_earlier_file_is_cut_to_the_new_rows(self, tmp_path, blob_pgm):
        def without_elapsed(path):
            return [row.rsplit(b",", 1)[0] for row in path.read_bytes().split(b"\r\n")]

        fresh = tmp_path / "fresh.csv"
        assert self._sweep(blob_pgm, fresh) == EXIT_OK
        old = tmp_path / "old.csv"
        old.write_bytes(b"x" * 10240)
        assert self._sweep(blob_pgm, old) == EXIT_OK
        assert without_elapsed(old) == without_elapsed(fresh)

    @pytest.mark.skipif(os.devnull != "/dev/null", reason="needs /dev/null")
    def test_dev_null_csv(self, blob_pgm, capsys):
        assert self._sweep(blob_pgm, os.devnull) == EXIT_OK
        assert capsys.readouterr().out.startswith("chosen_n:")

    def test_directory_csv_is_io_error(self, tmp_path, blob_pgm, capsys):
        assert self._sweep(blob_pgm, tmp_path) == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and str(tmp_path) in err[0]

    def test_failed_write_names_the_csv_and_overwrites_in_part(
        self, tmp_path, blob_pgm, capsys, monkeypatch
    ):
        target = tmp_path / "old.csv"
        target.write_bytes(b"x" * 10240)
        _break_writes(monkeypatch, OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)))
        assert self._sweep(blob_pgm, target) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and str(target) in err[0]
        # not atomic: the 8 bytes written before the failure replace the old table's first 8
        assert target.read_bytes() == b"n,psnr_d" + b"x" * (10240 - 8)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blobs.pgm", "old.csv"]


class TestOtsuCommand:
    def test_two_spike_image(self, tmp_path, capsys):
        path = two_spike_pgm(tmp_path)
        code = main(["otsu", "--input", str(path), "--classes", "2"])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert "thresholds: 50" in stdout
        assert "criterion:" in stdout

    def test_report_written(self, tmp_path):
        path = two_spike_pgm(tmp_path)
        report = tmp_path / "otsu.json"
        code = main(
            ["otsu", "--input", str(path), "--classes", "3", "--report", str(report)]
        )
        assert code == EXIT_OK
        payload = json.loads(report.read_text())
        assert payload["classes"] == 3
        assert len(payload["thresholds"]) == 2

    def test_unwritable_report_prints_no_result(self, tmp_path, capsys):
        path = two_spike_pgm(tmp_path)
        code = main(
            ["otsu", "--input", str(path), "--classes", "2",
             "--report", str(tmp_path / "missing" / "o.json")]
        )
        assert code == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize("classes", ["1", "5"])
    def test_class_count_out_of_range(self, tmp_path, classes):
        path = two_spike_pgm(tmp_path)
        assert main(["otsu", "--input", str(path), "--classes", classes]) == EXIT_USAGE


class _BrokenWrite:
    """A file that takes a few bytes of a write and then raises ``error``."""

    def __init__(self, fh, error):
        self._fh = fh
        self._error = error

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, data):
        self._fh.write(bytes(data)[:8])
        raise self._error

    def writelines(self, chunks):
        for chunk in chunks:
            self.write(chunk)

    def fileno(self):
        return self._fh.fileno()


def _break_writes(monkeypatch, error):
    monkeypatch.setattr(
        cli_module, "open", lambda *a, **k: _BrokenWrite(open(*a, **k), error), raising=False
    )


def test_interrupted_write_propagates_and_leaves_no_temporary(tmp_path, monkeypatch):
    target = tmp_path / "old"
    target.write_bytes(b"an earlier run's table")
    interrupt = KeyboardInterrupt()
    _break_writes(monkeypatch, interrupt)
    with pytest.raises(KeyboardInterrupt) as raised:
        cli_module._replace_files({str(target): (b"half a table", b"and the rest")})
    assert raised.value is interrupt
    assert target.read_bytes() == b"an earlier run's table"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old"]


@pytest.mark.parametrize(
    "first,second",
    [
        (["otsu", "--classes", "2", "--report"], ["otsu", "--classes", "3", "--report"]),
        (["bench", "--levels", "3", "--csv"], ["bench", "--levels", "3,5", "--csv"]),
    ],
    ids=["otsu-report", "bench-csv"],
)
def test_failed_write_keeps_the_old_file(tmp_path, blob_pgm, capsys, monkeypatch, first, second):
    target = tmp_path / "old"
    assert main([*first, str(target), "--input", str(blob_pgm)]) == EXIT_OK
    before = target.read_bytes()
    capsys.readouterr()
    _break_writes(monkeypatch, OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)))
    assert main([*second, str(target), "--input", str(blob_pgm)]) == EXIT_IO
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and str(target) in err[0]
    assert target.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blobs.pgm", "old"]


_WRITTEN_BY_RENAME = pytest.mark.parametrize(
    "flags",
    [
        ["segment", "--levels", "5", "--output"],
        ["otsu", "--classes", "3", "--report"],
        ["bench", "--levels", "3", "--csv"],
    ],
    ids=["segment-output", "otsu-report", "bench-csv"],
)


@pytest.mark.skipif(not hasattr(os, "pathconf"), reason="no pathconf")
@_WRITTEN_BY_RENAME
def test_target_name_of_name_max_bytes(tmp_path, blob_pgm, capsys, flags):
    """A temporary's name does not grow with its target's, so the longest legal name is written."""
    target = tmp_path / ("t" * os.pathconf(tmp_path, "PC_NAME_MAX"))
    assert main([*flags, str(target), "--input", str(blob_pgm)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert target.stat().st_size > 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["blobs.pgm", target.name])


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
@_WRITTEN_BY_RENAME
def test_fifo_target_is_refused_before_any_write(tmp_path, blob_pgm, capsys, flags):
    """A rename would put a regular file where the FIFO was."""
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    assert main([*flags, str(fifo), "--input", str(blob_pgm)]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert err[0].endswith(f"Not a regular file: {str(fifo)!r}")
    assert fifo.is_fifo()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blobs.pgm", "fifo"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
def test_fifo_report_keeps_the_old_output(tmp_path, blob_pgm, capsys):
    out, fifo = tmp_path / "q.pgm", tmp_path / "fifo"
    out.write_bytes(b"an earlier run's output")
    os.mkfifo(fifo)
    argv = ["segment", "--input", str(blob_pgm), "--levels", "5", "--output", str(out),
            "--report", str(fifo)]
    assert main(argv) == EXIT_IO
    assert str(fifo) in capsys.readouterr().err
    assert out.read_bytes() == b"an earlier run's output"
    assert fifo.is_fifo()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blobs.pgm", "fifo", "q.pgm"]


def test_symlink_to_a_regular_file_is_replaced_by_the_file(tmp_path, blob_pgm):
    kept, link = tmp_path / "kept.json", tmp_path / "link.json"
    kept.write_text("an earlier run's report", encoding="utf-8")
    link.symlink_to(kept)
    argv = ["otsu", "--classes", "3", "--report", str(link), "--input", str(blob_pgm)]
    assert main(argv) == EXIT_OK
    assert not link.is_symlink() and json.loads(link.read_text(encoding="utf-8"))["classes"] == 3
    assert kept.read_text(encoding="utf-8") == "an earlier run's report"


def _segment_into(blob_pgm, out, report, levels="7"):
    argv = ["segment", "--input", str(blob_pgm), "--levels", levels,
            "--output", str(out), "--report", str(report)]
    assert main(argv) == EXIT_OK
    return out.read_bytes(), report.read_bytes()


@pytest.fixture()
def fixed_elapsed(monkeypatch):
    """Reports with a fixed ``elapsed_ms``, so two runs compare byte for byte."""
    monkeypatch.setattr(cli_module, "timed", lambda fn, *args: (fn(*args), 0.0))


class TestPreallocation:
    def test_one_call_per_temporary_with_its_byte_count(
        self, tmp_path, blob_pgm, fixed_elapsed, monkeypatch
    ):
        calls = []

        def record(fd, mode, offset, size):
            calls.append((os.fstat(fd).st_ino, mode, offset, size))
            return 0

        monkeypatch.setattr(cli_module, "_fallocate", record)
        out, report = tmp_path / "q.pgm", tmp_path / "r.json"
        _segment_into(blob_pgm, out, report)
        # a rename keeps the inode, so each call was on the file now at its path
        assert calls == [
            (path.stat().st_ino, 0, 0, path.stat().st_size) for path in (out, report)
        ]

    @pytest.mark.parametrize("patch", ["unsupported", "absent"])
    def test_bytes_do_not_depend_on_it(self, tmp_path, blob_pgm, fixed_elapsed, monkeypatch, patch):
        expected = _segment_into(blob_pgm, tmp_path / "a.pgm", tmp_path / "a.json")
        # where a file system cannot preallocate, libc's fallocate returns -1 (EOPNOTSUPP)
        monkeypatch.setattr(cli_module, "_fallocate", None if patch == "absent" else lambda *a: -1)
        assert _segment_into(blob_pgm, tmp_path / "b.pgm", tmp_path / "b.json") == expected

    def test_empty_payload_is_written_without_it(self, tmp_path, monkeypatch):
        target = tmp_path / "old"
        target.write_bytes(b"an earlier run's table")
        calls = []
        monkeypatch.setattr(cli_module, "_fallocate", lambda *args: calls.append(args))
        cli_module._replace_files({str(target): (b"",)})
        assert target.read_bytes() == b""
        assert calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old"]

    @pytest.mark.skipif(sys.platform != "linux", reason="fallocate(2) is Linux's")
    def test_libc_call_sets_the_length(self, tmp_path):
        with open(tmp_path / "f", "wb") as fh:
            assert cli_module._fallocate(fh.fileno(), 0, 0, 12345) == 0
        assert (tmp_path / "f").read_bytes() == bytes(12345)

    def test_one_shot_chunks_are_refused_before_any_write(self, tmp_path):
        target = tmp_path / "old"
        target.write_bytes(b"an earlier run's table")
        with pytest.raises(TypeError, match="must be a sequence, got generator"):
            cli_module._replace_files({str(target): (chunk for chunk in [b"a table"])})
        assert target.read_bytes() == b"an earlier run's table"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old"]


def test_second_run_onto_the_same_paths(tmp_path, blob_pgm, fixed_elapsed):
    fresh = _segment_into(blob_pgm, tmp_path / "fresh.pgm", tmp_path / "fresh.json")
    out, report = tmp_path / "q.pgm", tmp_path / "r.json"
    assert _segment_into(blob_pgm, out, report, levels="3") != fresh
    assert _segment_into(blob_pgm, out, report) == fresh
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "blobs.pgm", "fresh.json", "fresh.pgm", "q.pgm", "r.json"
    ]


class TestBenchCommand:
    def test_corpus_rows(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for i, name in enumerate(["d.pgm", "b.pgm", "a.pgm", "c.pgm"]):
            (corpus / name).write_bytes(write_pgm(soft_blobs(size=32, seed=i)))
        out_csv = tmp_path / "bench.csv"
        code = main(
            ["bench", "--input", str(corpus), "--levels", "3,5,7,9", "--csv", str(out_csv)]
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(out_csv.read_text().splitlines()))
        assert len(rows) == 16  # 4 images x 4 levels
        # stdout holds one line per row, with the row's values, in the CSV's order
        assert capsys.readouterr().out.splitlines() == [
            f"{r['image']} n={r['n']} {r['elapsed_ms']} ms psnr={r['psnr_db']}" for r in rows
        ]
        assert [r["image"] for r in rows] == sorted(r["image"] for r in rows)
        assert [int(r["n"]) for r in rows[:4]] == [3, 5, 7, 9]
        assert all(float(r["elapsed_ms"]) >= 0 for r in rows)
        # the bytes csv writes to a file opened with newline="": CRLF rows, UTF-8
        with open(tmp_path / "rewritten.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        assert out_csv.read_bytes() == (tmp_path / "rewritten.csv").read_bytes()
        assert out_csv.read_bytes().startswith(b"image,n,thresholds,elapsed_ms,psnr_db\r\n")

    def test_empty_corpus_rejected(self, tmp_path):
        corpus = tmp_path / "empty"
        corpus.mkdir()
        code = main(
            ["bench", "--input", str(corpus), "--levels", "3",
             "--csv", str(tmp_path / "b.csv")]
        )
        assert code == EXIT_USAGE

    def test_even_level_rejected(self, tmp_path, blob_pgm):
        code = main(
            ["bench", "--input", str(blob_pgm), "--levels", "3,4",
             "--csv", str(tmp_path / "b.csv")]
        )
        assert code == EXIT_USAGE

    def test_kappa_is_no_bench_flag(self, tmp_path, blob_pgm, capsys):
        """bench times the default kappa schedule only; argparse rejects the flag."""
        out_csv = tmp_path / "b.csv"
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--input", str(blob_pgm), "--levels", "3", "--kappa", "1.0",
                  "--csv", str(out_csv)])
        assert exit_info.value.code == EXIT_USAGE
        assert "unrecognized arguments: --kappa 1.0" in capsys.readouterr().err
        assert not out_csv.exists()


def test_segment_and_bench_run_through_cli_segment_image(tmp_path, blob_pgm, monkeypatch):
    """Every segmentation goes through the name ``cli`` looks up, so a hook on it sees each."""
    calls = []
    real = cli_module.segment_image

    def counting(image, params):
        calls.append(params.n)
        return real(image, params)

    monkeypatch.setattr(cli_module, "segment_image", counting)
    assert main(
        ["segment", "--input", str(blob_pgm), "--levels", "5", "--output", str(tmp_path / "o.pgm")]
    ) == EXIT_OK
    assert calls == [5]
    calls.clear()
    assert main(
        ["bench", "--input", str(blob_pgm), "--levels", "3,5", "--csv", str(tmp_path / "b.csv")]
    ) == EXIT_OK
    assert calls == [3] * 20 + [5] * 20  # median of 20 runs per (image, n)


class TestReportRoundTrip:
    def test_json_round_trip_preserves_everything(self, tmp_path, blob_pgm):
        report_path = tmp_path / "r.json"
        assert main(
            ["segment", "--input", str(blob_pgm), "--levels", "7",
             "--kappa-schedule", "1.0:1.1,0.9:0.9",
             "--output", str(tmp_path / "o.pgm"), "--report", str(report_path)]
        ) == EXIT_OK
        text = report_path.read_text()
        payload = json.loads(text)
        assert json.dumps(payload, indent=2) == text
        assert payload["params"]["levels"] == 7
        quality = payload["quality"]
        assert quality["mse"] > 0
        assert float(quality["psnr_db"]) == decimal_psnr(quality["mse"])  # bit for bit

    def test_infinite_psnr_round_trip(self, tmp_path, constant_pgm):
        report_path = tmp_path / "r.json"
        assert main(
            ["segment", "--input", str(constant_pgm), "--levels", "3",
             "--output", str(tmp_path / "o.pgm"), "--report", str(report_path)]
        ) == EXIT_OK
        parsed = json.loads(report_path.read_text())
        assert parsed["quality"]["psnr_db"] == "inf"
        assert parsed["quality"]["mse"] == 0.0
        assert parsed["thresholds"] == [100]

    def test_params_written_once(self, tmp_path, blob_pgm):
        report_path = tmp_path / "r.json"
        assert main(
            ["segment", "--input", str(blob_pgm), "--levels", "5",
             "--output", str(tmp_path / "o.pgm"), "--report", str(report_path)]
        ) == EXIT_OK
        payload = json.loads(report_path.read_text())
        assert list(payload) == [
            "input_path", "params", "thresholds", "classes", "effective_n", "quality"
        ]
        assert list(payload["quality"]) == ["mse", "psnr_db", "elapsed_ms"]


# Each flag value here is rejected by the library (SegmentationParams,
# auto_select_n) or by cmd_otsu, never by a second check in the CLI; the
# last item is the text the one error line must quote.
LIBRARY_CHECKED_FLAGS = [
    (["segment", "--levels", "4"], "got 4"),
    (["segment", "--kappa", "0"], "(0.0, 0.0)"),
    (["segment", "--kappa", "nan"], "(nan, nan)"),
    (["segment", "--kappa-schedule", "1:2:3"], "'1:2:3'"),
    (["segment", "--kappa-schedule", "1.0:zap"], "'1.0:zap'"),
    (["sweep", "--max-levels", "8"], "got 8"),
    (["sweep", "--epsilon", "0"], "got 0.0"),
    (["sweep", "--epsilon", "nan"], "got nan"),
    (["bench", "--levels", "3,4"], "got 4"),
    (["bench", "--levels", "3,,5"], "'3,,5'"),
    (["otsu", "--classes", "5"], "got 5"),
]

VALID_FLAGS = {
    "segment": ["--levels", "5"],
    "sweep": ["--max-levels", "9", "--epsilon", "0.3"],
    "bench": ["--levels", "3"],
    "otsu": ["--classes", "3"],
}

OUTPUT_FLAG = {"segment": "--output", "sweep": "--csv", "bench": "--csv", "otsu": "--report"}


@pytest.mark.parametrize(
    "flags, quoted", LIBRARY_CHECKED_FLAGS, ids=[" ".join(f) for f, _ in LIBRARY_CHECKED_FLAGS]
)
def test_library_checked_flag_exits_2(tmp_path, blob_pgm, capsys, flags, quoted):
    command, bad = flags[0], flags[1:]
    out = tmp_path / "out"
    # argparse keeps the last value of a repeated flag, so ``bad`` overrides
    argv = [command, "--input", str(blob_pgm), OUTPUT_FLAG[command], str(out)]
    assert main(argv + VALID_FLAGS[command] + bad) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and quoted in err[0]
    assert not out.exists()


def test_bench_aborts_on_corrupt_file(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i, name in enumerate(["a.pgm", "c.pgm"]):
        (corpus / name).write_bytes(write_pgm(soft_blobs(size=16, seed=i)))
    (corpus / "b.pgm").write_bytes(b"P9 not an image")
    out_csv = tmp_path / "bench.csv"
    code = main(["bench", "--input", str(corpus), "--levels", "3", "--csv", str(out_csv)])
    assert code == EXIT_IO
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out_csv.exists()


@pytest.mark.parametrize(
    "data",
    [b"P5\n" + b"w" * 3000 + b" 1\n255\n\x00", b"P2 1 1 255\n" + b"a" * 4_000_000],
    ids=["width", "sample"],
)
def test_long_bad_token_is_one_short_error_line(tmp_path, capsys, data):
    bad = tmp_path / "long.pgm"
    bad.write_bytes(data)
    code = main(
        ["segment", "--input", str(bad), "--levels", "3", "--output", str(tmp_path / "x.pgm")]
    )
    assert code == EXIT_IO
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: bad ") and len(err[0]) <= 200


LONG = b"9" * 4000


@pytest.mark.parametrize(
    "data",
    [
        b"P5 " + LONG + b" " + LONG + b" 255\n\x00",
        b"P2 " + LONG + b" " + LONG + b" 255\n0",
        b"P5 1 1 " + LONG + b"\n\x00",
        b"P5 " + LONG + b" 1 255\n\x00",
        b"P2 1 1 255\n" + LONG,
        b"P5 0 " + LONG + b" 255\n\x00",
    ],
    ids=["p5-count", "p2-count", "maxval", "width", "sample", "dimensions"],
)
def test_long_number_is_one_short_error_line(tmp_path, capsys, data):
    bad = tmp_path / "long.pgm"
    bad.write_bytes(data)
    code = main(
        ["segment", "--input", str(bad), "--levels", "3", "--output", str(tmp_path / "x.pgm")]
    )
    assert code == EXIT_IO
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and len(err[0]) <= 200
    assert "(4000 digits)" in err[0] or "(8000 digits)" in err[0]


def test_long_digit_header_field_is_io_error(tmp_path, capsys):
    bad = tmp_path / "long.pgm"
    bad.write_bytes(b"P5\n" + b"9" * 5000 + b" 1\n255\n" + bytes(4))
    code = main(
        ["segment", "--input", str(bad), "--levels", "3", "--output", str(tmp_path / "x.pgm")]
    )
    assert code == EXIT_IO
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["segment", "--levels", "3", "--output", "q.pgm"],
        ["sweep", "--max-levels", "5", "--epsilon", "0.3", "--csv", "s.csv"],
        ["otsu", "--classes", "2"],
    ],
    ids=["segment", "sweep", "otsu"],
)
def test_one_pixel_raster(tmp_path, monkeypatch, argv):
    """The pixel passes read byte pairs, and one pixel holds none."""
    monkeypatch.chdir(tmp_path)
    Path("one.pgm").write_bytes(b"P5 1 1 255\n\x07")
    assert main([*argv, "--input", "one.pgm"]) == EXIT_OK


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=pgm_bytes())
def test_segment_on_arbitrary_bytes_exits_0_1_or_2(tmp_path, data):
    path = tmp_path / "fuzz.pgm"
    path.write_bytes(data)
    code = main(
        ["segment", "--input", str(path), "--levels", "3", "--output", str(tmp_path / "x.pgm")]
    )
    assert code in (EXIT_OK, EXIT_IO, EXIT_USAGE)


def _run_module(*args):
    """``python -m mvthresh.cli`` in a child process, with this checkout importable."""
    src = str(Path(mvthresh.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "mvthresh.cli", *args],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point_prints_usage():
    proc = _run_module("--help")
    assert proc.returncode == EXIT_OK
    assert proc.stdout.startswith("usage:")


def test_module_entry_point_reports_missing_input(tmp_path):
    proc = _run_module(
        "segment", "--input", str(tmp_path / "nope.pgm"), "--levels", "3",
        "--output", str(tmp_path / "x.pgm"),
    )
    assert proc.returncode == EXIT_IO
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not (tmp_path / "x.pgm").exists()
