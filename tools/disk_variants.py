"""Write the disk variants of perfbench/configs/disk_2d.json that CI runs.

Usage: python3 tools/disk_variants.py DISK_CONFIG OUT_DIR

Each variant is the disk config with its potential or its domain replaced:
- one_mirror: a potential that one axis mirror fixes (the free stepper
  meets states that one of the three mirrors fixes);
- rectangle: the 1 x 0.56 rectangle (2 b / h is not whole, so only the x
  mirror maps the grid onto itself);
- square: (-1, 1)^2, the whole group of eight with the rectangle's killing
  density;
- diagonal_mirror: a potential only the diagonal mirror fixes, exactly, as
  its parentheses keep it under the swap x <-> y;
- diagonal_unbracketed: the same potential evaluated as (0.2 x) y, which the
  swap keeps only to the last bit until sampling averages it with its image.
"""

import json
import sys
from pathlib import Path

VARIANTS = {
    "one_mirror": {"potential": {"kind": "bounded", "expr": "0.5 + 0.1*x + 0.2*y*y"}},
    "rectangle": {"domain": {"kind": "rectangle", "a": 1, "b": 0.56}},
    "square": {"domain": {"kind": "rectangle", "a": 1, "b": 1}},
    "diagonal_mirror": {"potential": {"kind": "bounded", "expr": "0.5 + 0.2*(x*y)"}},
    "diagonal_unbracketed": {"potential": {"kind": "bounded", "expr": "0.5 + 0.2*x*y"}},
}


def main(disk_config: str, out_dir: str) -> None:
    disk = json.loads(Path(disk_config).read_text())
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, change in VARIANTS.items():
        (out / f"{name}.json").write_text(json.dumps({**disk, **change}))


if __name__ == "__main__":
    main(*sys.argv[1:])
