"""Batch front-end: JSON config ingestion, subcommand dispatch, and
machine-readable outputs.

Results go to stdout as JSON (or to --out FILE); scan-det can also write its
rows as RFC-4180 CSV with --csv FILE.  Human-readable diagnostics go to stderr.
Exit codes: 0 success, 1 domain/numerical errors, 2 usage errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import re
import sys
from collections.abc import Iterator
from datetime import datetime, timezone

import numpy as np

from . import __version__, model, resonance, resolvent, spectral
from .model import ConfigError, PointConfig

__all__ = ["parse_config", "dispatch", "main"]


def _require_number(value, pointer: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError("must be a number", pointer)
    try:
        return float(value)
    except OverflowError:  # an integer beyond the double range
        raise ConfigError("must be finite", pointer)


def parse_config(path: str) -> PointConfig:
    """Load and validate the JSON config {"alpha": [...], "points": [[x,y,z], ...]}.

    Raises ConfigError with a JSON pointer to the offending field.  The JSON
    types and row shapes are checked here; finiteness, matching lengths and
    distinct points are PointConfig's checks.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}")

    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    for key in ("alpha", "points"):
        if key not in doc:
            raise ConfigError("missing required field", f"/{key}")
    if not isinstance(doc["alpha"], list) or not doc["alpha"]:
        raise ConfigError("must be a non-empty list", "/alpha")
    if not isinstance(doc["points"], list) or not doc["points"]:
        raise ConfigError("must be a non-empty list", "/points")

    alpha = [_require_number(a, f"/alpha/{i}") for i, a in enumerate(doc["alpha"])]
    points = []
    for i, row in enumerate(doc["points"]):
        if not isinstance(row, list) or len(row) != 3:
            raise ConfigError("must be a list of three coordinates", f"/points/{i}")
        points.append([_require_number(c, f"/points/{i}/{j}") for j, c in enumerate(row)])
    return PointConfig(alpha=np.array(alpha), points=np.array(points))


def _c2j(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _matrix2j(m: np.ndarray) -> dict:
    m = np.asarray(m)
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def _parse_tuple(text: str, parts: int, flag: str) -> list[float]:
    pieces = text.split(",")
    if len(pieces) != parts:
        raise ConfigError(f"{flag} expects {parts} comma-separated numbers, got {text!r}")
    try:
        values = [float(p) for p in pieces]
    except ValueError:
        raise ConfigError(f"{flag} expects numbers, got {text!r}")
    if not np.isfinite(values).all():
        raise ConfigError(f"{flag} expects finite numbers, got {text!r}")
    return values


def _pieces(obj, indent: str = ""):
    """The text of json.dumps(obj, indent=2), byte for byte for string keys,
    in pieces, with an iterator written as the list of its items, each
    rendered as it comes.  With an indent, json encodes in pure Python; here
    each list or dict of numbers alone goes through the C encoder in one
    call, and its ", " separators become indented line breaks (a key holding
    ", " keeps its dict on the slow path)."""
    if isinstance(obj, dict):
        brackets, values = "{}", obj.values()
        plain = all(", " not in k for k in obj)
        items = ((f"{json.dumps(k)}: ", v) for k, v in obj.items())
    elif isinstance(obj, (list, tuple, Iterator)):
        brackets, values, plain = "[]", obj, not isinstance(obj, Iterator)
        items = (("", v) for v in obj)
    else:
        yield json.dumps(obj)
        return
    inner = indent + "  "
    if plain and values and all(isinstance(v, (int, float)) for v in values):
        body = json.dumps(obj)[1:-1].replace(", ", ",\n" + inner)
        yield brackets[0] + "\n" + inner + body + "\n" + indent + brackets[1]
        return
    empty = True
    for key, value in items:
        yield (brackets[0] + "\n" if empty else ",\n") + inner + key
        yield from _pieces(value, inner)
        empty = False
    yield brackets if empty else "\n" + indent + brackets[1]


def _emit(payload: dict, out_path: str | None) -> None:
    """Write the payload's JSON piece by piece, so an iterator in it is never
    held whole."""
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(_pieces(payload))
            fh.write("\n")
    else:
        sys.stdout.writelines(_pieces(payload))
        sys.stdout.write("\n")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [f"{v:.17g}" if isinstance(v, float) else v for v in row]
            )


def _cmd_spectrum(cfg, args) -> dict:
    report = spectral.negative_eigenvalues(cfg, tol=args.tol)
    return {
        "eigenvalues": [
            {
                "lambda": rec.lam,
                "energy": rec.energy,
                "multiplicity": rec.multiplicity,
                "coefficients": [c.tolist() for c in rec.coefficients],
            }
            for rec in report.eigenvalues
        ]
    }


def _cmd_classify_zero(cfg, args) -> dict:
    cls = spectral.classify_zero(cfg, tol=args.tol)
    return {
        "label": cls.label,
        "kernel_dim": cls.kernel_dim,
        "eigenvalue_multiplicity": cls.eigenvalue_multiplicity,
        "resonance_present": cls.resonance_present,
        "kernel": [vec.tolist() for vec in cls.kernel],
    }


def _cmd_laurent(cfg, args) -> dict:
    if not (np.isfinite(args.radius) and args.radius > 0.0):
        raise ConfigError("--radius must be finite and > 0")
    coeffs = spectral.laurent_at_zero(cfg)
    # The coefficients are exact and take no contour: "radius" echoes
    # --radius and "nodes" is 0, kept because perfbench/run.py reads both.
    return {
        "radius": args.radius,
        "nodes": 0,
        "A_minus2": _matrix2j(coeffs.A_minus2),
        "A_minus1": _matrix2j(coeffs.A_minus1),
        "norm_A_minus2": float(np.abs(coeffs.A_minus2).max()),
        "norm_A_minus1": float(np.abs(coeffs.A_minus1).max()),
    }


def _cmd_resonances(cfg, args) -> dict:
    box = resonance.Box(*args.box)
    found = resonance.find_resonances(cfg, box, tol=args.tol)
    return {
        "box": {
            "re_min": found.searched.re_min,
            "re_max": found.searched.re_max,
            "im_min": found.searched.im_min,
            "im_max": found.searched.im_max,
        },
        "total_count": found.total_count,
        "roots": [
            {
                "z": _c2j(r.z),
                "multiplicity": r.multiplicity,
                "abs_det": r.abs_det,
                "sigma_min": r.sigma_min,
                "kind": r.kind,
            }
            for r in found.roots
        ],
    }


def _cmd_certify(cfg, args) -> dict:
    z_max = None
    if args.zmax != "auto":
        try:
            z_max = float(args.zmax)
        except ValueError:
            raise ConfigError(f"--zmax expects 'auto' or a number, got {args.zmax!r}")
    cert = resonance.certify_real_axis(cfg, z_max=z_max)
    return {
        "z_star": cert.z_star,
        "verdict": cert.verdict,
        "k0": cert.k0,
        "dominance_start": cert.dominance_start,
        "min_margin": cert.min_margin,
        "grid_covers_bound": cert.grid_covers_bound,
        "num_grid_points": int(cert.z_grid.size),
        "min_sigma_min": float(cert.sigma_min.min()),
        "z_grid": cert.z_grid.tolist(),
        "sigma_min": cert.sigma_min.tolist(),
    }


def _cmd_resolvent(cfg, args) -> dict:
    zre, zim = _parse_tuple(args.z, 2, "--z")
    z = complex(zre, zim)
    x = _parse_tuple(args.x, 3, "--x")
    xp = _parse_tuple(args.xp, 3, "--xp")
    value = resolvent.resolvent_kernel(cfg, z, x, xp)
    out = {
        "z": _c2j(z),
        "x": x,
        "xp": xp,
        "value": _c2j(value),
        "free_kernel": _c2j(model.green_kernel(z, x, xp)),
    }
    if args.check_helmholtz is not None:
        out["helmholtz_residual"] = resolvent.helmholtz_residual(
            cfg, z, x, xp, h=args.check_helmholtz
        )
    return out


# Scans assemble and factor Gamma in serial chunks of at most this many points.
_CHUNK_POINTS = 2048


def _cmd_scan_det(cfg, args) -> dict:
    """The scan's rows are written from its arrays one row at a time, in the
    JSON as the items of an iterator, so no list of rows is ever held."""
    if not np.isfinite([args.start, args.stop, args.step]).all():
        raise ConfigError("--from, --to and --step must be finite")
    if args.step <= 0.0:
        raise ConfigError("--step must be positive")
    if args.stop < args.start:
        raise ConfigError("--to must be >= --from")
    span = (args.stop - args.start) / args.step
    if not np.isfinite(span):
        raise ConfigError("--from, --to and --step give a non-finite number of points")
    count = int(np.floor(span + 1e-12)) + 1
    try:
        ts = args.start + args.step * np.arange(count)
        zs = ts.astype(complex) if args.axis == "real" else 1j * ts
        dets = np.empty(count, dtype=complex)
        sigmas = np.empty(count)
    except (MemoryError, ValueError):  # numpy's "Maximum allowed size exceeded" is a ValueError
        raise ConfigError(f"--from, --to and --step give {count:.3g} points, too many to allocate")

    for start in range(0, count, _CHUNK_POINTS):
        sl = slice(start, start + _CHUNK_POINTS)
        gs = model.gamma_stack(cfg, zs[sl])
        dets[sl] = np.linalg.det(gs)
        sigmas[sl] = np.linalg.svd(gs, compute_uv=False)[:, -1]

    def rows():
        for t, d, s in zip(ts.tolist(), dets.tolist(), sigmas.tolist()):
            yield t, d.real, d.imag, abs(d), s

    header = ["z", "re_det", "im_det", "abs_det", "sigma_min"]
    if args.csv:
        _write_csv(args.csv, header, rows())
    return {
        "axis": args.axis,
        "from": args.start,
        "to": args.stop,
        "step": args.step,
        "rows": (dict(zip(header, row)) for row in rows()),
    }


# A negative decimal number, with or without an exponent, or a negative inf or
# nan in any case, alone or first in a comma-separated tuple of such numbers
# (signed or not), as --z takes.
_NUMBER = r"((\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|(?i:inf|infinity|nan))"
_NEGATIVE_NUMBER = re.compile(rf"^-{_NUMBER}(,-?{_NUMBER})*$")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing leaves it unchanged,
    and every default it holds is immutable."""
    parser = argparse.ArgumentParser(
        prog="deltaspec",
        description="Spectral analysis of the 3D Laplacian with point interactions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        # argparse reads only -5 and -0.2 as negative numbers, so a value such
        # as -2e-1 or -1,0.5 would be taken for an option; it has no public
        # setting.
        p._negative_number_matcher = _NEGATIVE_NUMBER
        p.add_argument("config", help="JSON config file")
        p.add_argument("--out", help="write JSON result to FILE instead of stdout")
        p.set_defaults(func=func)
        return p

    p = add("spectrum", _cmd_spectrum, help="negative eigenvalues with multiplicities")
    p.add_argument("--tol", type=float, default=1e-10)

    p = add("classify-zero", _cmd_classify_zero, help="threshold status at z = 0")
    p.add_argument("--tol", type=float, default=1e-10)

    p = add("laurent", _cmd_laurent, help="Laurent coefficients of Gamma^-1 at 0")
    p.add_argument(
        "--radius",
        type=float,
        default=1e-2,
        help="only echoed in the output: the coefficients are exact, with no contour",
    )

    p = add("resonances", _cmd_resonances, help="zeros of det Gamma in a box")
    p.add_argument(
        "--box",
        type=float,
        nargs=4,
        required=True,
        metavar=("RE_MIN", "RE_MAX", "IM_MIN", "IM_MAX"),
    )
    p.add_argument("--tol", type=float, default=1e-10)

    p = add("certify", _cmd_certify, help="proof that Gamma is invertible on the real axis")
    p.add_argument("--zmax", default="auto", help="'auto' (analytic bound) or a number")

    p = add("resolvent", _cmd_resolvent, help="perturbed resolvent kernel value")
    p.add_argument("--z", required=True, help="spectral parameter RE,IM")
    p.add_argument("--x", required=True, help="evaluation point X,Y,Z")
    p.add_argument("--xp", required=True, help="source point X,Y,Z")
    p.add_argument(
        "--check-helmholtz",
        type=float,
        default=None,
        metavar="H",
        help="also report the finite-difference Helmholtz residual at step H",
    )

    p = add("scan-det", _cmd_scan_det, help="scan det Gamma along an axis")
    p.add_argument("--axis", choices=["real", "imag"], required=True)
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--csv", help="also write the scan as CSV")

    return parser


# Namespace entries that are not run parameters: the config path is recorded
# apart, and the rest only say where output goes.
_NOT_PARAMETERS = {"command", "config", "out", "csv", "func"}


def dispatch(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS}
    # Reproducibility stamp embedded verbatim in every output.
    manifest = {
        "command": args.command,
        "config_path": args.config,
        "parameters": params,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    try:
        cfg = parse_config(args.config)
        result = args.func(cfg, args)
    except (ValueError, RuntimeError) as exc:  # ConfigError, SingularMatrixError included
        print(f"deltaspec: error: {exc}", file=sys.stderr)
        return 1
    payload = {"manifest": manifest}
    payload.update(result)
    _emit(payload, args.out)
    return 0


def main(argv=None) -> int:
    return dispatch(argv)


if __name__ == "__main__":
    sys.exit(main())
