"""Golden resonance corpus: find_resonances must reproduce stored roots bit for bit.

Every float in `golden_resonances.json` is stored as `float.hex`, so the
comparison is exact.  The corpus was written by the resonance finder before
its edge quadrature was batched; a refactor that keeps the arithmetic must
keep these records unchanged.  Regenerate (only after a deliberate numerical
change) with `PYTHONPATH=src python tests/test_golden.py`.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import random_config
from deltaspec import Box, PointConfig, find_resonances

GOLDEN = Path(__file__).with_name("golden_resonances.json")

# (seed, number of centers); configs as in acceptance criterion 7.
CORPUS = [(101, 2), (102, 3), (103, 2), (104, 3)]
SEARCH = (-5.0, 5.0, -5.0, -0.2)


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
    for seed, n in CORPUS:
        rng = np.random.default_rng(seed)
        cfg = random_config(rng, n, radius=1.2, min_dist=0.5, alpha_scale=2.0)
        corpus.append(
            {
                "seed": seed,
                "alpha": [float(a).hex() for a in cfg.alpha],
                "points": [[float(c).hex() for c in row] for row in cfg.points],
                "box": list(SEARCH),
                **_record(cfg, Box(*SEARCH)),
            }
        )
    return corpus


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_golden_resonances_reproduced_exactly(index):
    entry = json.loads(GOLDEN.read_text())[index]
    expected = {k: entry[k] for k in ("searched", "total_count", "roots")}
    assert entry["total_count"] > 0
    assert _record(_config(entry), Box(*entry["box"])) == expected


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_generate(), indent=1) + "\n")
