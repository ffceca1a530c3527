"""Golden resonance corpus: find_resonances must reproduce stored roots bit for bit.

Every float in `golden_resonances.json` is stored as `float.hex`, so the
comparison is exact.  A refactor that keeps the arithmetic must keep these
records unchanged.  Regenerate (only after a deliberate numerical change)
with `PYTHONPATH=src python tests/test_golden.py`; it prints, entry by entry,
what changed against the stored corpus before writing the new one.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import random_config
from deltaspec import Box, PointConfig, find_resonances

GOLDEN = Path(__file__).with_name("golden_resonances.json")

# (seed, number of centers, search box); configs as in acceptance criterion 7.
# The first four boxes are symmetric about Re z = 0, the next four are not;
# the last, an N=8 config whose box holds 19 zeros, is too crowded for one
# moment step, so its search is quadrisected.
SEARCH = (-5.0, 5.0, -5.0, -0.2)
CORPUS = [
    (101, 2, SEARCH),
    (102, 3, SEARCH),
    (103, 2, SEARCH),
    (104, 3, SEARCH),
    (101, 2, (-4.0, 5.0, -5.0, -0.2)),
    (102, 3, (-5.0, 3.0, -5.0, -0.2)),
    (103, 2, (0.25, 5.0, -5.0, -0.2)),
    (104, 3, (-3.0, 4.5, -4.0, -0.3)),
    (1, 8, SEARCH),
]


def _hex(z: complex) -> list[str]:
    return [float(z.real).hex(), float(z.imag).hex()]


def _record(cfg: PointConfig, box: Box) -> dict:
    found = find_resonances(cfg, box)
    s = found.searched
    return {
        "searched": [float(v).hex() for v in (s.re_min, s.re_max, s.im_min, s.im_max)],
        "total_count": found.total_count,
        "roots": [
            {
                "z": _hex(r.z),
                "multiplicity": r.multiplicity,
                "abs_det": float(r.abs_det).hex(),
                "sigma_min": float(r.sigma_min).hex(),
                "kind": r.kind,
            }
            for r in found.roots
        ],
    }


def _config(entry: dict) -> PointConfig:
    alpha = [float.fromhex(a) for a in entry["alpha"]]
    points = [[float.fromhex(c) for c in row] for row in entry["points"]]
    return PointConfig(alpha=alpha, points=points)


def _generate() -> list[dict]:
    corpus = []
    for seed, n, box in CORPUS:
        rng = np.random.default_rng(seed)
        cfg = random_config(rng, n, radius=1.2, min_dist=0.5, alpha_scale=2.0)
        corpus.append(
            {
                "seed": seed,
                "alpha": [float(a).hex() for a in cfg.alpha],
                "points": [[float(c).hex() for c in row] for row in cfg.points],
                "box": list(box),
                **_record(cfg, Box(*box)),
            }
        )
    return corpus


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_golden_resonances_reproduced_exactly(index):
    entry = json.loads(GOLDEN.read_text())[index]
    expected = {k: entry[k] for k in ("searched", "total_count", "roots")}
    assert entry["total_count"] > 0
    assert _record(_config(entry), Box(*entry["box"])) == expected


def _z(pair: list[str]) -> complex:
    return complex(float.fromhex(pair[0]), float.fromhex(pair[1]))


def report_changes(old: dict, new: dict, tol: float) -> list[str]:
    """What changed between two records of one search: the searched box, the
    total count, the root count, the order of the roots, the multiplicities
    and kinds, the largest |dz| against tol, and the largest relative change
    of each root's |det| and sigma_min.  Each old root is paired with the
    nearest new one."""
    lines = []
    for key in ("searched", "total_count"):
        if old[key] != new[key]:
            lines.append(f"{key}: {old[key]} -> {new[key]}")
    a, b = old["roots"], new["roots"]
    if len(a) != len(b):
        lines.append(f"root count: {len(a)} -> {len(b)}")
        return lines
    za, zb = [_z(r["z"]) for r in a], [_z(r["z"]) for r in b]
    pair = [min(range(len(zb)), key=lambda j: abs(w - zb[j])) for w in za]
    if sorted(pair) != list(range(len(b))):
        lines.append(f"roots do not pair up: {pair}")
        return lines
    if pair != sorted(pair):
        lines.append(f"root order: new index of each old root {pair}")
    for i, j in enumerate(pair):
        for key in ("multiplicity", "kind"):
            if a[i][key] != b[j][key]:
                lines.append(f"root {i} {key}: {a[i][key]} -> {b[j][key]}")
    dz = max((abs(za[i] - zb[j]) for i, j in enumerate(pair)), default=0.0)
    lines.append(f"max |dz| = {dz:.3g} ({dz / tol:.3g} tol) over {len(b)} roots")
    for key in ("abs_det", "sigma_min"):
        rel = max(
            (_relative(float.fromhex(a[i][key]), float.fromhex(b[j][key])) for i, j in enumerate(pair)),
            default=0.0,
        )
        lines.append(f"max relative |d {key}| = {rel:.3g}")
    return lines


def _relative(old: float, new: float) -> float:
    return abs(new - old) / abs(old) if old else abs(new - old)


if __name__ == "__main__":
    new = _generate()
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []
    for i, entry in enumerate(new):
        label = f"[{i}] seed {entry['seed']} box {entry['box']}"
        if i >= len(old):
            print(f"{label}: new entry")
        elif old[i] == entry:
            print(f"{label}: unchanged")
        else:
            for line in report_changes(old[i], entry, tol=1e-10):
                print(f"{label}: {line}")
    GOLDEN.write_text(json.dumps(new, indent=1) + "\n")
