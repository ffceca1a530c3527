"""Golden CLI corpus: every subcommand must reproduce its stored output byte
for byte.

`golden_cli/` holds seeded configs, the JSON each job wrote (with the run
timestamp dropped from its manifest) and the CSV files of the jobs that write
one.  Config paths are given relative to `golden_cli/`, so the manifests do
not depend on where the repository lives.  Regenerate (only after a
deliberate numerical change) with `PYTHONPATH=src python tests/test_golden_cli.py`;
it prints which jobs changed, for a `resonances` job what changed in its
roots, for a `spectrum` job what changed in its records and their
coefficient vectors (up to sign, and which flipped), for a `certify` job
what changed in its keys, verdict, min_margin and grid, its dominance start, whether the
new nodes are a subset of the old, and sigma_min on the nodes both share, for
a `laurent` job
what changed in its keys, parameters, nodes and coefficients, and for a
`resolvent` job |dvalue|, |dfree_kernel| and the Helmholtz residual, before
writing the new corpus.
"""

import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import random_config
from deltaspec.cli import dispatch

GOLDEN = Path(__file__).with_name("golden_cli")

_TIMESTAMP = re.compile(r',\n    "timestamp": "[^"]*"')


def _configs() -> dict:
    """Config file name -> PointConfig."""
    def seeded(seed, n, **kwargs):
        return random_config(np.random.default_rng(seed), n, **kwargs)

    return {
        "n2.json": seeded(201, 2, radius=1.2, min_dist=0.5, alpha_scale=2.0),
        "n3.json": seeded(202, 3, radius=1.2, min_dist=0.5, alpha_scale=2.0),
        "n5.json": seeded(203, 5, radius=2.0, min_dist=0.3, alpha_scale=3.0),
        # as in test_certificate_large_n_gram_precision_exhaustion: many
        # centers, where the sinc Gram matrix near z = 0 is numerically
        # indefinite while sigma_min(Gamma) stays far from zero
        "n40.json": seeded(5150, 40, radius=5.0, min_dist=0.4, alpha_scale=3.0),
        # a second N=40 config; both certify jobs stop at --zmax 1, short of
        # z_star, so their verdict is false for lack of coverage
        "n40b.json": seeded(5163, 40, radius=5.0, min_dist=0.4, alpha_scale=3.0),
    }


def _jobs() -> dict:
    """Job name -> (argv, writes a CSV)."""
    jobs = {}
    for cfg in ("n2.json", "n3.json", "n5.json"):
        stem = cfg.removesuffix(".json")
        jobs.update({
            f"{stem}-spectrum": (["spectrum", cfg], False),
            f"{stem}-classify-zero": (["classify-zero", cfg], False),
            f"{stem}-laurent": (["laurent", cfg], False),
            f"{stem}-resonances": (
                ["resonances", cfg, "--box", "-3", "3", "-3", "-0.2"], False
            ),
            f"{stem}-certify": (["certify", cfg], False),
            f"{stem}-resolvent": (
                ["resolvent", cfg, "--z", "1.3,0.4", "--x", "2.5,0.3,-0.7",
                 "--xp=-1.9,2.2,0.4", "--check-helmholtz", "1e-3"],
                False,
            ),
            f"{stem}-scan-det-real": (
                ["scan-det", cfg, "--axis", "real", "--from", "0.1", "--to", "4",
                 "--step", "0.25"],
                True,
            ),
            f"{stem}-scan-det-imag": (
                ["scan-det", cfg, "--axis", "imag", "--from", "0", "--to", "4",
                 "--step", "0.25"],
                True,
            ),
        })
    for cfg in ("n40.json", "n40b.json"):
        jobs[f"{cfg.removesuffix('.json')}-certify"] = (
            ["certify", cfg, "--zmax", "1"], False
        )
    return jobs


JOBS = _jobs()


def _run(name: str, out_dir: Path) -> tuple[bytes, bytes | None]:
    """JSON (timestamp dropped) and CSV bytes of one job, run from GOLDEN."""
    argv, writes_csv = JOBS[name]
    out, csv = out_dir / f"{name}.json", out_dir / f"{name}.csv"
    extra = ["--out", str(out)] + (["--csv", str(csv)] if writes_csv else [])
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        assert dispatch(argv + extra) == 0
    finally:
        os.chdir(cwd)
    text, count = _TIMESTAMP.subn("", out.read_text(encoding="utf-8"))
    assert count == 1
    return text.encode("utf-8"), csv.read_bytes() if writes_csv else None


@pytest.mark.parametrize("name", sorted(JOBS))
def test_golden_cli_reproduced_exactly(name, tmp_path):
    text, csv = _run(name, tmp_path)
    assert text == (GOLDEN / f"{name}.json").read_bytes()
    if csv is not None:
        assert csv == (GOLDEN / f"{name}.csv").read_bytes()


def _search_record(text: bytes) -> dict:
    """A `resonances` job's output in the form of the resonance corpus."""
    doc = json.loads(text)
    return {
        "searched": list(doc["box"].values()),
        "total_count": doc["total_count"],
        "roots": [
            {
                "z": [r["z"]["re"].hex(), r["z"]["im"].hex()],
                "multiplicity": r["multiplicity"],
                "abs_det": r["abs_det"].hex(),
                "sigma_min": r["sigma_min"].hex(),
                "kind": r["kind"],
            }
            for r in doc["roots"]
        ],
    }


def spectrum_changes(old: bytes, new: bytes) -> list[str]:
    """What changed between two outputs of a `spectrum` job: the record
    count, the multiplicity of each record, the largest |dlam|, the records
    whose coefficient vector flipped sign, and the largest change of a
    coefficient vector up to sign."""
    a, b = (json.loads(text)["eigenvalues"] for text in (old, new))
    if len(a) != len(b):
        return [f"record count: {len(a)} -> {len(b)}"]
    lines = [
        f"record {i} multiplicity: {r['multiplicity']} -> {s['multiplicity']}"
        for i, (r, s) in enumerate(zip(a, b))
        if r["multiplicity"] != s["multiplicity"]
    ]
    dlam = max((abs(r["lambda"] - s["lambda"]) for r, s in zip(a, b)), default=0.0)
    lines.append(f"max |dlam| = {dlam:.3g} over {len(b)} records")
    flipped, dv = [], 0.0
    for i, (r, s) in enumerate(zip(a, b)):
        for j, (u, w) in enumerate(zip(r["coefficients"], s["coefficients"])):
            u, w = np.array(u), np.array(w)
            same, opposite = np.abs(w - u).max(), np.abs(w + u).max()
            if opposite < same:
                flipped.append(f"record {i}" + (f" vector {j}" if s["multiplicity"] > 1 else ""))
            dv = max(dv, min(same, opposite))
    if flipped:
        lines.append(f"sign flipped: {', '.join(flipped)}")
    lines.append(f"max |dv| = {dv:.3g} up to sign")
    return lines


def resolvent_changes(old: bytes, new: bytes) -> list[str]:
    """What changed between two outputs of a `resolvent` job: |dvalue|,
    |dfree_kernel| and the Helmholtz residual, when it was checked."""
    a, b = json.loads(old), json.loads(new)
    lines = []
    for key in ("value", "free_kernel"):
        va, vb = (complex(d[key]["re"], d[key]["im"]) for d in (a, b))
        lines.append(f"|d{key}| = {abs(va - vb):.3g} on |{key}| = {abs(va):.3g}")
    ra, rb = a.get("helmholtz_residual"), b.get("helmholtz_residual")
    if ra != rb:
        lines.append(f"helmholtz_residual: {ra!r} -> {rb!r}")
    return lines


def certify_changes(old: bytes, new: bytes) -> list[str]:
    """What changed between two outputs of a `certify` job: removed and new
    keys, the verdict, min_margin, the new dominance start, the grid and whether its new
    nodes are a subset of the old, and the largest |dsigma_min| on the nodes
    both grids share."""
    a, b = json.loads(old), json.loads(new)
    lines = [f"removed key {k}" for k in a if k not in b]
    lines += [f"new key {k}" for k in b if k not in a]
    if a["verdict"] != b["verdict"]:
        lines.append(f"verdict: {a['verdict']} -> {b['verdict']}")
    if a["min_margin"] != b["min_margin"]:
        lines.append(f"min_margin: {a['min_margin']!r} -> {b['min_margin']!r}")
    if "dominance_start" in b:
        lines.append(f"dominance_start = {b['dominance_start']!r}")
    old_sigma = dict(zip(a["z_grid"], a["sigma_min"]))
    shared = [(old_sigma[k], s) for k, s in zip(b["z_grid"], b["sigma_min"]) if k in old_sigma]
    if a["z_grid"] != b["z_grid"]:
        subset = "a subset" if len(shared) == len(b["z_grid"]) else "not a subset"
        lines.append(
            f"z_grid changed: {len(a['z_grid'])} -> {len(b['z_grid'])} points, "
            f"{subset} of the old"
        )
    dsigma = max((abs(p - q) for p, q in shared), default=0.0)
    lines.append(f"max |dsigma_min| = {dsigma:.3g} over {len(shared)} shared points")
    return lines


def test_spectrum_changes_report():
    old = (GOLDEN / "n5-spectrum.json").read_bytes()
    doc = json.loads(old)
    assert spectrum_changes(old, old) == [
        "max |dlam| = 0 over 2 records", "max |dv| = 0 up to sign"
    ]
    doc["eigenvalues"][1]["lambda"] += 2.5e-12
    doc["eigenvalues"][0]["multiplicity"] = 2
    (vector,) = doc["eigenvalues"][1]["coefficients"]
    doc["eigenvalues"][1]["coefficients"] = [[-v for v in vector]]
    doc["eigenvalues"][0]["coefficients"][0][2] += 2.0 ** -40
    new = json.dumps(doc).encode()
    assert spectrum_changes(old, new) == [
        "record 0 multiplicity: 1 -> 2",
        "max |dlam| = 2.5e-12 over 2 records",
        "sign flipped: record 1",
        f"max |dv| = {2.0 ** -40:.3g} up to sign",
    ]
    del doc["eigenvalues"][0]
    assert spectrum_changes(old, json.dumps(doc).encode()) == ["record count: 2 -> 1"]


def test_certify_changes_report():
    old = (GOLDEN / "n3-certify.json").read_bytes()
    doc = json.loads(old)
    size, start = len(doc["z_grid"]), doc["dominance_start"]
    assert certify_changes(old, old) == [
        f"dominance_start = {start!r}", f"max |dsigma_min| = 0 over {size} shared points"
    ]
    doc["sigma_min"][1] += 2.0 ** -40  # exact on a sigma_min below 2**12
    doc["verdict"] = not doc["verdict"]
    doc["extra"] = doc.pop("min_sigma_min")
    assert certify_changes(old, json.dumps(doc).encode()) == [
        "removed key min_sigma_min",
        "new key extra",
        f"verdict: {not doc['verdict']} -> {doc['verdict']}",
        f"dominance_start = {start!r}",
        f"max |dsigma_min| = {2.0 ** -40:.3g} over {size} shared points",
    ]
    doc["z_grid"].pop(0)
    doc["sigma_min"].pop(0)
    assert certify_changes(old, json.dumps(doc).encode())[-2:] == [
        f"z_grid changed: {size} -> {size - 1} points, a subset of the old",
        f"max |dsigma_min| = {2.0 ** -40:.3g} over {size - 1} shared points",
    ]
    doc["z_grid"][0] += 2.0 ** -40
    assert certify_changes(old, json.dumps(doc).encode())[-2:] == [
        f"z_grid changed: {size} -> {size - 1} points, not a subset of the old",
        f"max |dsigma_min| = 0 over {size - 2} shared points",
    ]


def test_resolvent_changes_report():
    old = (GOLDEN / "n5-resolvent.json").read_bytes()
    doc = json.loads(old)
    value = abs(complex(doc["value"]["re"], doc["value"]["im"]))
    free = abs(complex(doc["free_kernel"]["re"], doc["free_kernel"]["im"]))
    assert resolvent_changes(old, old) == [
        f"|dvalue| = 0 on |value| = {value:.3g}",
        f"|dfree_kernel| = 0 on |free_kernel| = {free:.3g}",
    ]
    doc["free_kernel"]["im"] += 2.0 ** -40
    residual = doc["helmholtz_residual"]
    doc["helmholtz_residual"] = 2.0 * residual
    assert resolvent_changes(old, json.dumps(doc).encode()) == [
        f"|dvalue| = 0 on |value| = {value:.3g}",
        f"|dfree_kernel| = {2.0 ** -40:.3g} on |free_kernel| = {free:.3g}",
        f"helmholtz_residual: {residual!r} -> {2.0 * residual!r}",
    ]


def laurent_changes(old: bytes, new: bytes) -> list[str]:
    """What changed between two outputs of a `laurent` job: removed and new
    keys, the manifest's parameters, `nodes`, and the largest |dA_-2| and
    |dA_-1|."""
    a, b = json.loads(old), json.loads(new)
    lines = [f"removed key {k}" for k in a if k not in b]
    lines += [f"new key {k}" for k in b if k not in a]
    pa, pb = (d["manifest"]["parameters"] for d in (a, b))
    lines += [f"removed parameter {k}" for k in pa if k not in pb]
    lines += [f"new parameter {k}" for k in pb if k not in pa]
    lines += [f"parameter {k}: {pa[k]!r} -> {pb[k]!r}" for k in pa if k in pb and pa[k] != pb[k]]
    if a["nodes"] != b["nodes"]:
        lines.append(f"nodes: {a['nodes']} -> {b['nodes']}")
    for key in ("A_minus2", "A_minus1"):
        ma, mb = (np.array(d[key]["re"]) + 1j * np.array(d[key]["im"]) for d in (a, b))
        lines.append(f"max |d{key}| = {np.abs(ma - mb).max():.3g}")
    return lines


def test_laurent_changes_report():
    old = (GOLDEN / "n2-laurent.json").read_bytes()
    doc = json.loads(old)
    assert laurent_changes(old, old) == ["max |dA_minus2| = 0", "max |dA_minus1| = 0"]
    doc["manifest"]["parameters"]["radius"] = 0.005
    doc["manifest"]["parameters"]["nodes"] = 64
    doc["nodes"] = 64
    doc["A_minus1"]["im"][1][0] += 2.5e-12
    doc["extra"] = doc.pop("norm_A_minus2")
    assert laurent_changes(old, json.dumps(doc).encode()) == [
        "removed key norm_A_minus2",
        "new key extra",
        "new parameter nodes",
        "parameter radius: 0.01 -> 0.005",
        "nodes: 0 -> 64",
        "max |dA_minus2| = 0",
        "max |dA_minus1| = 2.5e-12",
    ]


REPORTS = {
    "spectrum": spectrum_changes,
    "resolvent": resolvent_changes,
    "certify": certify_changes,
    "laurent": laurent_changes,
}


def _generate() -> None:
    from test_golden import report_changes

    GOLDEN.mkdir(exist_ok=True)
    for name, cfg in _configs().items():
        doc = {"alpha": cfg.alpha.tolist(), "points": cfg.points.tolist()}
        (GOLDEN / name).write_text(json.dumps(doc) + "\n")
    for name, (argv, _) in JOBS.items():
        path = GOLDEN / f"{name}.json"
        old = path.read_bytes() if path.exists() else None
        text, _ = _run(name, GOLDEN)
        if old is None:
            print(f"{name}: new job")
        elif old == text:
            print(f"{name}: unchanged")
        elif argv[0] == "resonances":
            tol = float(json.loads(text)["manifest"]["parameters"]["tol"])
            for line in report_changes(_search_record(old), _search_record(text), tol):
                print(f"{name}: {line}")
        elif argv[0] in REPORTS:
            for line in REPORTS[argv[0]](old, text):
                print(f"{name}: {line}")
        else:
            print(f"{name}: changed")
        path.write_bytes(text)


if __name__ == "__main__":
    _generate()
