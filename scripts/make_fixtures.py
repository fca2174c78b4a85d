#!/usr/bin/env python3
"""Write the deterministic synthetic fixture corpus as PGM files.

Useful for exercising the CLI by hand:

    python scripts/make_fixtures.py --out fixtures/
    mvthresh segment --input fixtures/soft_blobs.pgm --levels 5 --output /tmp/q.pgm
"""

import argparse
from pathlib import Path

from mvthresh.image import write_pgm
from mvthresh.synthetic import GENERATORS


def write_fixtures(out_dir: Path, size: int = 256) -> list[Path]:
    """Write one ``<generator>.pgm`` per synthetic generator into ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, generate in GENERATORS.items():
        path = out_dir / f"{name}.pgm"
        path.write_bytes(write_pgm(generate(size=size)))
        paths.append(path)
    return paths


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="fixtures", help="output directory")
    parser.add_argument("--size", type=int, default=256, help="side length in pixels")
    args = parser.parse_args()

    for path in write_fixtures(Path(args.out), args.size):
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
