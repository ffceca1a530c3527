import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import threshold_pole_on_node_config
from deltaspec import cli
from deltaspec.cli import _pieces, dispatch, parse_config
from deltaspec.model import ConfigError, FOUR_PI, gamma_stack


def write_config(tmp_path, alpha, points, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"alpha": alpha, "points": points}))
    return str(path)


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- parse_config


def test_parse_config_valid(tmp_path):
    path = write_config(tmp_path, [-1.0], [[0.0, 0.0, 0.0]])
    cfg = parse_config(path)
    assert cfg.n == 1
    assert cfg.alpha[0] == -1.0


def test_parse_config_missing_file():
    with pytest.raises(ConfigError):
        parse_config("/nonexistent/cfg.json")


def test_parse_config_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        parse_config(str(path))


def test_parse_config_length_mismatch(tmp_path):
    path = write_config(tmp_path, [1.0, 2.0], [[0, 0, 0], [1, 0, 0], [2, 0, 0]])
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert err.value.pointer == "/points"


def test_parse_config_nan_alpha(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"alpha": [1.0, NaN], "points": [[0,0,0],[1,0,0]]}')
    with pytest.raises(ConfigError) as err:
        parse_config(str(path))
    assert err.value.pointer == "/alpha/1"


def test_parse_config_duplicate_points(tmp_path):
    path = write_config(tmp_path, [1.0, 2.0], [[0, 0, 0], [0, 0, 0]])
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert "/points/1" in str(err.value)
    assert "point 0" in str(err.value)


def test_parse_config_bad_point_shape(tmp_path):
    path = write_config(tmp_path, [1.0], [[0, 0]])
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert err.value.pointer == "/points/0"


def test_parse_config_missing_key(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"alpha": [1.0]}')
    with pytest.raises(ConfigError) as err:
        parse_config(str(path))
    assert err.value.pointer == "/points"


def test_integer_beyond_double_range_is_a_config_error(tmp_path, capsys):
    # float(10**400) overflows: the config is rejected with its pointer
    path = tmp_path / "cfg.json"
    path.write_text('{"alpha": [1' + "0" * 400 + '], "points": [[0, 0, 0]]}')
    with pytest.raises(ConfigError) as err:
        parse_config(str(path))
    assert err.value.pointer == "/alpha/0"
    code, out, err_text = run(capsys, "spectrum", str(path))
    assert code == 1
    assert out == ""
    assert "/alpha/0: must be finite" in err_text


# ---------------------------------------------------------------- subcommands


def test_spectrum_single_bound_state(tmp_path, capsys):
    path = write_config(tmp_path, [-1.0], [[0.0, 0.0, 0.0]])
    code, out, _ = run(capsys, "spectrum", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["manifest"]["command"] == "spectrum"
    assert doc["manifest"]["config_path"] == path
    [rec] = doc["eigenvalues"]
    assert rec["lambda"] == pytest.approx(FOUR_PI, abs=1e-9)
    assert rec["energy"] == pytest.approx(-16 * np.pi ** 2, abs=1e-9)
    assert rec["multiplicity"] == 1
    assert rec["coefficients"] == [[1.0]] or rec["coefficients"] == [[-1.0]]


def test_classify_zero_resonant(tmp_path, capsys):
    path = write_config(tmp_path, [0.0], [[0.0, 0.0, 0.0]])
    code, out, _ = run(capsys, "classify-zero", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["label"] == "ZeroResonance"
    assert doc["kernel_dim"] == 1
    assert doc["resonance_present"] is True


def test_laurent_resonant_single_center(tmp_path, capsys):
    path = write_config(tmp_path, [0.0], [[0.0, 0.0, 0.0]])
    code, out, _ = run(capsys, "laurent", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["A_minus1"]["im"][0][0] == pytest.approx(FOUR_PI, abs=1e-8)
    assert doc["norm_A_minus2"] < 1e-8


def test_laurent_node_near_a_pole_exits_zero(tmp_path, capsys):
    # a zero resonance whose Gamma has a second zero 5e-13 from a node of a
    # 64-node circle of radius 0.01; the closed form sees only the pole at 0
    cfg = threshold_pole_on_node_config(5e-13)
    path = write_config(tmp_path, cfg.alpha.tolist(), cfg.points.tolist())
    code, out, err = run(capsys, "laurent", path)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["norm_A_minus2"] < 1e-8 * doc["norm_A_minus1"]


def test_laurent_radius_is_only_echoed(tmp_path, capsys):
    # the coefficients are exact and take no contour: radius is always 0.01,
    # nodes 0, and --radius is not an option
    path = write_config(tmp_path, [0.0], [[0.0, 0.0, 0.0]])
    code, out, _ = run(capsys, "laurent", path)
    doc = json.loads(out)
    assert code == 0 and (doc["radius"], doc["nodes"]) == (0.01, 0)
    assert doc["manifest"]["parameters"] == {"radius": 0.01}
    code, out, err = run(capsys, "laurent", path, "--radius", "0.01")
    assert (code, out) == (2, "") and "unrecognized arguments: --radius" in err


def test_resonances_antibound_state(tmp_path, capsys):
    path = write_config(tmp_path, [1.0], [[0.0, 0.0, 0.0]])
    code, out, _ = run(
        capsys, "resonances", path, "--box", "-1", "1", "-20", "-1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["total_count"] == 1
    [root] = doc["roots"]
    assert root["z"]["im"] == pytest.approx(-FOUR_PI, abs=1e-8)
    assert root["kind"] == "resonance"


def test_certify_with_csv(tmp_path, capsys):
    # certify takes no option but --out: no grid, no CSV and no upper end.
    # Its nodes are the bisection's up to z_star, and a fixed-grid sigma_min
    # scan is scan-det --axis real, whose CSV agrees with the certificate at
    # a node
    path = write_config(tmp_path, [1.0, 1.0], [[0, 0, 0], [1.0, 0, 0]])
    csv_path = tmp_path / "scan.csv"
    for extra in (["--csv", str(csv_path)], ["--grid", "0.05"], ["--zmax", "1"]):
        code, out, err = run(capsys, "certify", path, *extra)
        assert code == 2 and out == "" and "unrecognized arguments" in err
    code, out, _ = run(capsys, "certify", path)
    assert code == 0
    doc = json.loads(out)
    # every row is dominant at every k >= 0: no bisection, no margin
    assert doc["verdict"] is True and doc["k0"] == 0.0 and doc["min_margin"] is None
    assert doc["dominance_start"] == 0.0 and doc["z_grid"] == [0.0, doc["z_star"]]
    assert doc["grid_covers_bound"] is True
    assert doc["z_star"] == pytest.approx(FOUR_PI + 2.0)
    # alpha = 0.02: the bisection runs below dominance_start ~ 0.968
    path = write_config(tmp_path, [0.02, 0.02], [[0, 0, 0], [1.0, 0, 0]])
    code, out, _ = run(capsys, "certify", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] is True and doc["k0"] == 0.0 and doc["min_margin"] > 1.0
    assert 0.96 < doc["dominance_start"] < 0.97
    assert len(doc["z_grid"]) == len(doc["sigma_min"]) == doc["num_grid_points"] > 2
    assert doc["z_grid"] == sorted(doc["z_grid"])
    assert doc["min_sigma_min"] == min(doc["sigma_min"])
    k, sigma = doc["z_grid"][1], doc["sigma_min"][1]
    argv = ["--axis", "real", "--from", repr(k), "--to", repr(k), "--step", "1"]
    assert run(capsys, "scan-det", path, *argv, "--csv", str(csv_path))[0] == 0
    with open(csv_path, newline="") as fh:
        [header, row] = list(csv.reader(fh))
    assert float(row[0]) == k
    assert float(row[header.index("sigma_min")]) == pytest.approx(sigma, rel=1e-12)


def test_graded_dominant_config_is_regular_and_certified(tmp_path, capsys):
    # alpha = (1e15, -1) at distance 1: every row of Gamma(0) is dominant, so
    # the threshold is Regular although the eigenvalue -1 is below 1e-10 of
    # the largest, and dominance proves the whole axis from two evaluations
    path = write_config(tmp_path, [1e15, -1], [[0, 0, 0], [1, 0, 0]])
    code, out, _ = run(capsys, "certify", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] is True and doc["k0"] == 0.0 and doc["num_grid_points"] == 2
    assert doc["dominance_start"] == 0.0 and doc["min_margin"] is None
    code, out, _ = run(capsys, "classify-zero", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["label"] == "Regular" and doc["kernel_dim"] == 0


def test_resolvent_subcommand(tmp_path, capsys):
    path = write_config(tmp_path, [1.0], [[0.0, 0.0, 0.0]])
    code, out, _ = run(
        capsys,
        "resolvent", path,
        "--z", "0.0,1.0",
        "--x", "1.0,0.0,0.0",
        "--xp", "0.0,1.5,0.5",
        "--check-helmholtz", "0.01",
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) >= {"z", "x", "xp", "value", "free_kernel", "helmholtz_residual"}
    assert doc["helmholtz_residual"] < 1e-2


def test_scan_det_csv(tmp_path, capsys):
    path = write_config(tmp_path, [1.0], [[0.0, 0.0, 0.0]])
    csv_path = tmp_path / "scan.csv"
    code, out, _ = run(
        capsys,
        "scan-det", path,
        "--axis", "real", "--from", "0.5", "--to", "1.5", "--step", "0.25",
        "--csv", str(csv_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert [r["z"] for r in doc["rows"]] == [0.5, 0.75, 1.0, 1.25, 1.5]
    for row in doc["rows"]:
        expect = 1.0 - 1j * row["z"] / FOUR_PI
        assert row["abs_det"] == pytest.approx(abs(expect), rel=1e-12)
        assert row["sigma_min"] == pytest.approx(abs(expect), rel=1e-12)
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["z", "re_det", "im_det", "abs_det", "sigma_min"]
    assert len(rows) == 6


def test_scan_det_imag_axis(tmp_path, capsys):
    path = write_config(tmp_path, [-1.0], [[0.0, 0.0, 0.0]])
    code, out, _ = run(
        capsys, "scan-det", path, "--axis", "imag", "--from", "12.0", "--to", "13.0", "--step", "0.1"
    )
    assert code == 0
    doc = json.loads(out)
    dets = [row["abs_det"] for row in doc["rows"]]
    assert min(dets) < 0.01  # the eigenvalue pole at lam = 4 pi is inside


def test_scan_det_chunks_match_one_batch(tmp_path, capsys, monkeypatch):
    # a scan of many chunks gives the rows of one batch, bit for bit
    path = write_config(tmp_path, [-1.0, 0.5, 2.0], [[0, 0, 0], [1, 0, 0], [0, 0.7, 0.3]])
    argv = ["scan-det", path, "--axis", "real", "--from", "0", "--to", "30", "--step", "0.01"]
    code, out, _ = run(capsys, *argv)
    rows = json.loads(out)["rows"]
    assert code == 0 and len(rows) == 3001 <= cli.model._BATCH_ENTRIES // 9  # one batch
    monkeypatch.setattr(cli.model, "_BATCH_ENTRIES", 37 * 9)  # chunks of 37 points
    _, small, _ = run(capsys, *argv)
    assert json.loads(small)["rows"] == rows
    monkeypatch.setattr(cli.model, "_BATCH_ENTRIES", 1)  # chunks of one point
    _, single, _ = run(capsys, *argv)
    assert json.loads(single)["rows"] == rows
    zs = np.array([r["z"] for r in rows])
    gs = gamma_stack(parse_config(path), zs)
    assert [r["abs_det"] for r in rows] == [float(abs(d)) for d in np.linalg.det(gs)]


def test_scan_det_chunk_errors_propagate(tmp_path, capsys, monkeypatch):
    calls = []

    def broken(cfg, zs):
        calls.append(zs.size)
        raise FloatingPointError("chunk failed")

    path = write_config(tmp_path, [0.5, 0.5], [[0, 0, 0], [1.3, 0, 0]])
    monkeypatch.setattr(cli.model, "gamma_stack", broken)
    monkeypatch.setattr(cli.model, "_BATCH_ENTRIES", 2048 * 4)  # chunks of 2,048 points
    with pytest.raises(FloatingPointError, match="chunk failed"):
        run(capsys, "scan-det", path, "--axis", "real", "--from", "0", "--to", "1",
            "--step", "1e-4")
    assert calls == [2048]  # the first chunk failed, and no other ran

    def exhausted(cfg, zs):
        raise MemoryError("Unable to allocate")

    monkeypatch.setattr(cli.model, "gamma_stack", exhausted)
    code, out, err = run(capsys, "scan-det", path, "--axis", "real", "--from", "0", "--to", "1",
                         "--step", "1e-4")
    assert (code, out, err) == (1, "", "deltaspec: error: Unable to allocate\n")


def test_scan_det_starts_no_thread(tmp_path):
    # The perfbench tracer keeps one span stack, which is right only while
    # every CLI path runs on the main thread.  A subprocess, because pytest
    # itself may import concurrent.futures.
    path = write_config(tmp_path, [-1.0, 0.5], [[0, 0, 0], [1, 0, 0]])
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import json, sys, threading\n"
        "from deltaspec.cli import dispatch\n"
        f"argv = ['scan-det', {path!r}, '--axis', 'real', '--from', '0', '--to', '30',"
        f" '--step', '0.01', '--out', {str(tmp_path / 'scan.json')!r}]\n"
        "code = dispatch(argv)\n"
        "print(json.dumps([code, threading.active_count(), 'concurrent.futures' in sys.modules]))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == [0, 1, False]
    assert len(json.loads((tmp_path / "scan.json").read_text())["rows"]) == 3001


def test_overflowing_distance_is_a_config_error(tmp_path, capsys):
    # |y_1 - y_0| overflows to inf.  Computed with, it would hide the bound
    # state of the alpha = -1 center at lambda = 4 pi, and classify-zero
    # would read a label from a NaN Gamma(0).
    path = write_config(tmp_path, [1.0, -1.0], [[0, 0, 0], [1e200, 1e200, 0]])
    for command in ("spectrum", "classify-zero"):
        code, out, err = run(capsys, command, path)
        assert (code, out) == (1, "")
        assert "/points: distance between points 0 and 1 overflows" in err


def test_resolvent_at_overflowing_distance_is_an_error(tmp_path, capsys):
    # computed with, the distance from x to a center gives a NaN value
    path = write_config(tmp_path, [1.0, -1.0], [[0, 0, 0], [1, 0, 0]])
    code, out, err = run(capsys, "resolvent", path, "--z=1,0", "--x=1e200,1e200,0",
                         "--xp=0,0,1")
    assert (code, out) == (1, "")
    assert "not finite" in err


# ---------------------------------------------------------------- emitter


def _dumps(obj) -> str:
    return "".join(_pieces(obj))


_numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, float("nan"),
                     float("inf"), float("-inf")]),
    st.integers(),
    st.booleans(),
    st.floats(allow_nan=True).map(np.float64),
)
_leaves = st.one_of(
    _numbers,
    st.none(),
    st.text(),
    st.sampled_from(["a, b", ", ", "Grüße, Ω", "\u2028", '"", \\']),
)
_keys = st.one_of(st.text(max_size=8), st.sampled_from(["a, b", ", ", "Ω, "]))
_documents = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(_numbers, max_size=6),
        st.dictionaries(_keys, inner, max_size=5),
        st.dictionaries(_keys, _numbers, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_documents)
def test_dumps_matches_json_indent_2(doc):
    assert _dumps(doc) == json.dumps(doc, indent=2)


def test_dumps_fast_path_is_for_numbers_only():
    doc = {"k": [1.5, True, None], "s": ["x, y", 2], "n": [[], {}, [-0.0, 7]], "e": {},
           "d": {"x, y": 1.0, "z": 2}, "f": {"x": 1.0, "y": float("nan")}, "t": (1, 2.5)}
    assert _dumps(doc) == json.dumps(doc, indent=2)
    assert _dumps([]) == "[]" and _dumps({}) == "{}"
    # an iterator is written as the list of its items
    rows = {"rows": iter([{"z": 0.5, "abs_det": 1.0}, [2, 3.5], {}]), "none": iter([])}
    listed = {"rows": [{"z": 0.5, "abs_det": 1.0}, [2, 3.5], {}], "none": []}
    assert _dumps(rows) == json.dumps(listed, indent=2)


# ---------------------------------------------------------------- plumbing


def test_output_to_file(tmp_path, capsys):
    path = write_config(tmp_path, [0.0], [[0.0, 0.0, 0.0]])
    out_path = tmp_path / "result.json"
    code, out, _ = run(capsys, "classify-zero", path, "--out", str(out_path))
    assert code == 0
    assert out == ""
    doc = json.loads(out_path.read_text())
    assert doc["label"] == "ZeroResonance"


def test_numerical_fields_are_deterministic(tmp_path, capsys):
    path = write_config(tmp_path, [-0.8, 0.4], [[0, 0, 0], [1.1, 0, 0]])
    _, out1, _ = run(capsys, "spectrum", path)
    _, out2, _ = run(capsys, "spectrum", path)
    doc1, doc2 = json.loads(out1), json.loads(out2)
    doc1.pop("manifest")
    doc2.pop("manifest")
    assert json.dumps(doc1) == json.dumps(doc2)


MANIFEST_PARAMETERS = {
    "spectrum": ([], ["tol"]),
    "classify-zero": (["--tol", "1e-9"], ["tol"]),
    "laurent": ([], ["radius"]),
    "resonances": (["--box", "-1", "1", "-2", "-1"], ["box", "tol"]),
    "certify": ([], []),
    "resolvent": (
        ["--z", "1,0.5", "--x", "1,0,0", "--xp", "0,1,0"],
        ["z", "x", "xp", "check_helmholtz"],
    ),
    "scan-det": (
        ["--axis", "real", "--from", "0", "--to", "1", "--step", "0.5", "--csv", "scan.csv"],
        ["axis", "start", "stop", "step"],
    ),
}


def test_manifest_fields(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, [1.0], [[0.0, 0.0, 0.0]])
    for command, (extra, keys) in MANIFEST_PARAMETERS.items():
        code, out, _ = run(capsys, command, path, *extra, "--out", "out.json")
        assert code == 0 and out == ""
        man = json.loads((tmp_path / "out.json").read_text())["manifest"]
        assert set(man) == {"command", "config_path", "parameters", "tool_version", "timestamp"}
        assert man["command"] == command
        assert man["config_path"] == path
        assert list(man["parameters"]) == keys
        assert man["tool_version"]
        if command == "classify-zero":
            assert man["parameters"] == {"tol": 1e-9}


def test_domain_error_exit_code(tmp_path, capsys):
    code, out, err = run(capsys, "spectrum", "/nonexistent/cfg.json")
    assert code == 1
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "one", "--out", "/nonexistent/x.json"],
        ["spectrum", "."],  # a directory, not a config file
        ["scan-det", "one", "--axis", "real", "--from", "0", "--to", "1", "--step", "0.5",
         "--csv", "/nonexistent/s.csv"],
    ],
)
def test_unreadable_or_unwritable_paths_are_domain_errors(tmp_path, capsys, argv):
    path = write_config(tmp_path, [0.0], [[0.0, 0.0, 0.0]], "one.json")
    argv = [str(tmp_path) if a == "." else path if a == "one" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    [line] = err.splitlines()
    assert line.startswith("deltaspec: error:") and "Traceback" not in err
    assert (argv[-1] if argv[-2] in ("--out", "--csv") else str(tmp_path)) in line


MALFORMED_CONFIGS = {
    "text_alpha": '{"alpha": ["x"], "points": [[0, 0, 0]]}',
    "bool_alpha": '{"alpha": [true], "points": [[0, 0, 0]]}',
    "array": "[1, 2]",
    "empty_alpha": '{"alpha": [], "points": [[0, 0, 0]]}',
    "empty_points": '{"alpha": [1.0], "points": []}',
    "nan_point": '{"alpha": [1.0], "points": [[0, NaN, 0]]}',
}
# malformed inputs, each with a part of its one error line
MALFORMED = {
    ("spectrum", "text_alpha"): "/alpha/0: must be a number",
    ("spectrum", "bool_alpha"): "/alpha/0: must be a number",
    ("spectrum", "array"): "config must be a JSON object",
    ("spectrum", "empty_alpha"): "/alpha: must be a non-empty list",
    ("spectrum", "empty_points"): "/points: must be a non-empty list",
    ("spectrum", "nan_point"): "/points/0/1: must be finite",
    ("resolvent", "one", "--z", "1", "--x", "1,0,0", "--xp", "0,1,0"):
        "--z expects 2 comma-separated numbers",
    ("resolvent", "one", "--z", "a,b", "--x", "1,0,0", "--xp", "0,1,0"): "--z expects numbers",
    ("scan-det", "one", "--axis", "real", "--from", "0", "--to", "1", "--step", "0"):
        "--step must be positive",
    ("scan-det", "one", "--axis", "real", "--from", "1", "--to", "0", "--step", "0.1"):
        "--to must be >= --from",
    **{
        ("resolvent", "one", "--z", "1,0", "--x", "1,0,0", "--xp", "0,1,0",
         "--check-helmholtz", h): "--check-helmholtz must be finite and positive"
        for h in ("0", "-1", "nan", "inf")
    },
}


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "two", "--tol", "nan"],
        ["classify-zero", "one", "--tol", "nan"],
        ["resonances", "one", "--box", "-1", "1", "-20", "-1", "--tol", "inf"],
        ["resonances", "one", "--box", "-1", "inf", "-20", "-1"],
        ["scan-det", "one", "--axis", "real", "--from", "0", "--to", "inf", "--step", "0.1"],
        ["scan-det", "one", "--axis", "real", "--from", "nan", "--to", "1", "--step", "0.1"],
        ["scan-det", "one", "--axis", "imag", "--from", "0", "--to", "1", "--step", "nan"],
        ["resolvent", "one", "--z", "1,0", "--x", "inf,0,0", "--xp", "0,1,0"],
        ["resolvent", "one", "--z", "1,0", "--x", "nan,0,0", "--xp", "0,1,0"],
        ["resolvent", "one", "--z", "1,0", "--x", "1,0,0", "--xp", "0,inf,0"],
        ["resolvent", "one", "--z", "nan,0", "--x", "1,0,0", "--xp", "0,1,0"],
        # signed inf and nan are values, not options
        ["resonances", "one", "--box", "-inf", "1", "-20", "-1"],
        ["resolvent", "one", "--z", "-1,nan", "--x", "1,0,0", "--xp", "0,1,0"],
        ["scan-det", "one", "--axis", "real", "--from", "-nan", "--to", "1", "--step", "0.1"],
        # finite bounds whose point count is not finite
        ["scan-det", "one", "--axis", "imag", "--from", "-1e308", "--to", "1e308", "--step", "1"],
        ["scan-det", "one", "--axis", "imag", "--from", "0", "--to", "1", "--step", "1e-320"],
        # finite point counts too large to allocate: arange fails before it
        # writes any memory
        ["scan-det", "one", "--axis", "imag", "--from", "0", "--to", "1e15", "--step", "1"],
        ["scan-det", "one", "--axis", "imag", "--from", "0", "--to", "1e300", "--step", "1"],
        *map(list, MALFORMED),
    ],
)
@pytest.mark.filterwarnings("error")
def test_non_finite_numbers_are_domain_errors(tmp_path, capsys, argv):
    # NaN fails every comparison and inf overflows a grid count; both must be
    # rejected up front instead of giving a wrong answer, a warning or a
    # traceback.  So must the malformed values and configs of MALFORMED.
    configs = {
        "one": write_config(tmp_path, [0.0], [[0.0, 0.0, 0.0]], "one.json"),
        "two": write_config(tmp_path, [-1.0, -0.5], [[0, 0, 0], [1, 0, 0]], "two.json"),
    }
    for name, text in MALFORMED_CONFIGS.items():
        (tmp_path / f"{name}.json").write_text(text)
        configs[name] = str(tmp_path / f"{name}.json")
    message = MALFORMED.get(tuple(argv))
    argv = [argv[0], configs[argv[1]], *argv[2:]]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("deltaspec: error:")
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    if message is not None:  # the error says what is malformed
        assert message in err
    elif argv[0] == "resolvent":  # the error names the flag
        [flag] = [f for f, v in zip(argv[2::2], argv[3::2]) if "inf" in v or "nan" in v]
        assert f"{flag} expects finite numbers" in err
    elif argv[0] == "scan-det":
        assert "--from, --to and --step" in err


@pytest.mark.parametrize(
    "exponent, decimal",
    [
        (
            ["resonances", "--box", "-5e-1", "5e-1", "-2e1", "-1e0"],
            ["resonances", "--box", "-0.5", "0.5", "-20", "-1"],
        ),
        (
            ["scan-det", "--axis", "real", "--from", "-1e-3", "--to", "1", "--step", "0.25"],
            ["scan-det", "--axis", "real", "--from", "-0.001", "--to", "1", "--step", "0.25"],
        ),
    ],
)
def test_negative_exponent_form_parses_as_a_number(tmp_path, capsys, exponent, decimal):
    path = write_config(tmp_path, [1.0], [[0.0, 0.0, 0.0]])
    docs = []
    for argv in (exponent, decimal):
        code, out, _ = run(capsys, argv[0], path, *argv[1:])
        assert code == 0
        doc = json.loads(out)
        doc["manifest"].pop("timestamp")
        docs.append(doc)
    assert docs[0] == docs[1]


def test_negative_tuple_parses_as_a_value(tmp_path, capsys):
    # --z -1,0.5 is the value of --z, not an option, as --z=-1,0.5 is
    path = write_config(tmp_path, [1.0], [[0.0, 0.0, 0.0]])
    docs = []
    for z in (["--z", "-1,0.5"], ["--z=-1,0.5"]):
        code, out, _ = run(capsys, "resolvent", path, *z, "--x", "1,0,0", "--xp", "-1,-2e-1,0")
        assert code == 0
        doc = json.loads(out)
        doc["manifest"].pop("timestamp")
        docs.append(doc)
    assert docs[0] == docs[1]


def test_usage_error_exit_code(capsys):
    assert run(capsys, "no-such-command", "cfg.json")[0] == 2
    assert run(capsys)[0] == 2


def test_shared_parser_gives_the_output_of_a_fresh_one(tmp_path, capsys, monkeypatch):
    # dispatch builds its parser once per process: --help, a usage error and
    # two subcommands, run in turn, give the exit codes and bytes (timestamp
    # aside) that a parser built for each call gives
    path = write_config(tmp_path, [-1.0, -0.5], [[0, 0, 0], [1, 0, 0]])
    calls = [
        ["--help"],
        ["spectrum", path, "--tol"],
        ["spectrum", path],
        ["classify-zero", path, "--tol", "1e-9"],
        ["spectrum", "--help"],
        ["spectrum", path],
        ["--help"],
    ]

    def outputs():
        stamp = re.compile(r'"timestamp": "[^"]*"')
        return [
            (code, stamp.sub("", out), err)
            for code, out, err in (run(capsys, *argv) for argv in calls)
        ]

    shared = outputs()
    assert cli._build_parser() is cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert outputs() == shared
    assert [code for code, _, _ in shared] == [0, 2, 0, 0, 0, 0, 0]


def test_duplicate_points_reported_with_indices(tmp_path, capsys):
    path = write_config(tmp_path, [1.0, 2.0], [[0, 0, 0], [0, 0, 0]])
    code, _, err = run(capsys, "spectrum", path)
    assert code == 1
    assert "/points/1" in err
