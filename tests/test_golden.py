"""The CLI's output bytes on the fixture corpus, and the corpus itself, match the committed digests."""

import json
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
sys.path.insert(0, str(SCRIPTS))

import make_golden  # noqa: E402


def test_outputs_match_golden_digests(tmp_path):
    expected = json.loads(make_golden.GOLDEN.read_text())
    actual = make_golden.digests(tmp_path)
    inputs = sorted(
        name for name in expected if name.startswith("input/") and actual.get(name) != expected[name]
    )
    assert not inputs, f"the generated fixtures moved, not the program: {inputs}"
    assert actual == expected
