"""The CLI's output bytes on the fixture corpus match the committed digests."""

import json
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
sys.path.insert(0, str(SCRIPTS))

import make_golden  # noqa: E402


def test_outputs_match_golden_digests(tmp_path):
    expected = json.loads(make_golden.GOLDEN.read_text())
    assert make_golden.digests(tmp_path) == expected
