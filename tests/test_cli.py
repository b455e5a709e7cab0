import csv
import io
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import thermoshift.boundary_entropy as boundary_entropy
from thermoshift import NumericError, face_entropy_curve, get_potential
from thermoshift.cache import CACHE_ENV
from thermoshift.cli import _curve_rows, main


def run(capsys, *args):
    rc = main(list(args))
    out, err = capsys.readouterr()
    return rc, out, err


def run_json(capsys, *args):
    rc, out, err = run(capsys, *args)
    assert rc == 0, err
    return json.loads(out)


def test_orbits_census(capsys):
    env = run_json(capsys, "orbits", "--shift", "full3", "--k", "2")
    assert env["command"] == "orbits"
    assert env["tool"] == "thermoshift"
    assert env["warnings"] == []
    pay = env["payload"]
    assert pay["count"] == 148
    assert pay["histogram"] == [[1, 3], [2, 3], [3, 8], [4, 12], [5, 18],
                                [6, 20], [7, 24], [8, 36], [9, 24]]
    assert len(pay["orbits"]) == 148
    assert "generated_at" in env and "generated_at" not in pay


def test_rotset_exact_vertices(capsys):
    env = run_json(capsys, "rotset", "--potential", "trivec")
    pay = env["payload"]
    assert pay["m"] == 2
    assert pay["affine_dim"] == 2
    verts = {tuple(v) for v in pay["vertices"]}
    assert verts == {("0", "0"), ("1", "0"), ("1/2", "1")}


def test_rotset_payload_pinned(capsys):
    # primitive outward normals with their offsets, walked counterclockwise
    pay = run_json(capsys, "rotset", "--potential", "trivec")["payload"]
    assert pay == {
        "m": 2, "affine_dim": 2,
        "vertices": [["0", "0"], ["1", "0"], ["1/2", "1"]],
        "facets": [{"vertex_ids": [0, 1], "normal": ["0", "-1"], "offset": "0"},
                   {"vertex_ids": [1, 2], "normal": ["2", "1"], "offset": "2"},
                   {"vertex_ids": [2, 0], "normal": ["-2", "1"], "offset": "0"}]}


def test_rotset_facet_cap_exits_2(capsys, monkeypatch):
    from thermoshift import rotation_geometry
    monkeypatch.setattr(rotation_geometry, "HULL_FACET_CAP", 2)
    rc, _, err = run(capsys, "rotset", "--potential", "trivec")
    assert rc == 2 and "facet cap" in err


def test_classify_fixed_point(capsys):
    pay = run_json(capsys, "classify", "--potential", "fix0")["payload"]
    assert pay["case"] == "VertexPeriodic"
    assert pay["beta"] == "1"
    assert pay["limit"][0]["measure"]["states"] == ["00"]


def test_classify_symmetry_coefficients(capsys):
    pay = run_json(capsys, "classify", "--potential", "twofix")["payload"]
    assert pay["case"] == "MultiComponent"
    assert pay["coefficients"] == ["1/2", "1/2"]
    assert pay["coefficient_method"] == "symmetry"


def test_classify_without_symmetry_warns(capsys):
    env = run_json(capsys, "classify", "--potential", "twofix_skew")
    assert env["payload"]["case"] == "MultiComponent"
    assert any("ztsweep" in w for w in env["warnings"])


def test_payloads_are_deterministic(capsys):
    a = run_json(capsys, "classify", "--potential", "hubmax")
    b = run_json(capsys, "classify", "--potential", "hubmax")
    assert a["input_hash"] == b["input_hash"]
    dump = lambda env: json.dumps(env["payload"], sort_keys=True)
    assert dump(a) == dump(b)


def test_ztsweep_csv_and_coefficients(capsys):
    env = run_json(capsys, "ztsweep", "--potential", "threefix_a",
                   "--tmax", "512")
    pay = env["payload"]
    assert pay["method"] == "sweep"
    assert pay["csv_header"] == ["t", "mass_c0", "mass_c1", "mass_c2",
                                 "boundary_mass"]
    coeffs = [float(c) for c in pay["coefficients"]]
    assert coeffs == pytest.approx([0.5, 0.25, 0.25], abs=1e-3)
    last = pay["rows"][-1]
    assert len(last) == 5
    assert float(last[-1]) < 1e-6


def test_facecurve_csv_layout(capsys, tmp_path):
    out = tmp_path / "fc"
    env = run_json(capsys, "facecurve", "--potential", "trivec",
                   "--alpha", "0,-1", "--samples", "51",
                   "--out", str(out))
    pay = env["payload"]
    assert pay["smooth"] is True
    assert pay["kinks"] == []
    text = (out / "facecurve.csv").read_text()
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["s", "w_x", "w_y", "h_envelope", "component_id_or_bridge"]
    body = rows[1:]
    svals = [float(r[0]) for r in body]
    assert svals == sorted(svals)
    assert svals[0] == 0.0 and svals[-1] == 1.0
    mid = body[len(body) // 2]
    assert mid[4] == "bridge"
    assert body[0][4] != "bridge" and body[-1][4] != "bridge"
    assert all(float(r[2]) == 0.0 for r in body)      # the face lies at w_y = 0
    assert (out / "facecurve.json").exists()
    assert not list(out.glob("*.tmp"))


def test_facecurve_takes_negative_directions(capsys):
    # argparse reads a lone "-2,1" as an option; main joins it to --alpha
    spaced = run_json(capsys, "facecurve", "--potential", "trivec", "--alpha", "-2,1")
    joined = run_json(capsys, "facecurve", "--potential", "trivec", "--alpha=-2,1")
    assert spaced["payload"] == joined["payload"]
    assert spaced["payload"]["direction"] == ["-2", "1"]
    # so are the prefixes of --alpha that argparse takes for it, but not "--"
    for flag in ("--a", "--al", "--alp", "--alph"):
        got = run_json(capsys, "facecurve", "--potential", "trivec", flag, "-2,1")
        assert got["payload"] == joined["payload"]
    assert run(capsys, "facecurve", "--potential", "trivec", "--", "-2,1")[0] == 1
    # every facet normal that rotset prints goes back into facecurve as is
    negative = 0
    for name in ("trivec", "kinkvec"):
        for facet in run_json(capsys, "rotset", "--potential", name)["payload"]["facets"]:
            alpha = ",".join(facet["normal"])
            pay = run_json(capsys, "facecurve", "--potential", name, "--alpha", alpha,
                           "--samples", "9")["payload"]
            assert pay["direction"] == facet["normal"]
            negative += alpha.startswith("-")
    assert negative >= 2


def test_facecurve_in_three_dimensions(capsys, tmp_path):
    # the simplex of 0, e1, e2 and e3: its edge from 0 to e1 is exposed by
    # (0,-1,0) + (0,0,-1), the normals of the two facets through it; a facet
    # normal exposes a triangle, and an m = 1 potential has no edges
    pot = tmp_path / "simplex.json"
    corners = {"11": ["1", "0", "0"], "22": ["0", "1", "0"], "01": ["0", "0", "1"],
               "10": ["0", "0", "1"]}
    pot.write_text(json.dumps({"k": 2, "m": 3, "values": {
        f"{a}{b}": corners.get(f"{a}{b}", ["0", "0", "0"]) for a in "012" for b in "012"}}))
    pay = run_json(capsys, "facecurve", "--shift", "full3", "--potential", str(pot),
                   "--alpha", "0,-1,-1", "--samples", "11", "--out", str(tmp_path))["payload"]
    assert pay["endpoints"] == [["0", "0", "0"], ["1", "0", "0"]]
    rows = list(csv.reader(io.StringIO((tmp_path / "facecurve.csv").read_text())))
    assert rows[0] == ["s", "w_x", "w_y", "w_z", "h_envelope", "component_id_or_bridge"]
    assert [[float(x) for x in r[:4]] for r in rows[1:]] == [[i / 10, i / 10, 0.0, 0.0]
                                                             for i in range(11)]
    rc, _, err = run(capsys, "facecurve", "--shift", "full3", "--potential", str(pot),
                     "--alpha", "0,-1,0")
    assert rc == 2 and "non-segment face" in err
    rc, _, err = run(capsys, "facecurve", "--potential", "fix0", "--alpha", "1")
    assert rc == 2 and "m >= 2" in err


def test_curve_rows_bisect_the_hull_once_each(monkeypatch):
    # a curve lists its hull abscissae once; each CSV row bisects them once
    # and reads its height and provenance from that one bisection
    curve = face_entropy_curve(get_potential("trivec"), (0, -1))
    calls, bisect = [], boundary_entropy.bisect_right

    def counting(a, x):
        calls.append(a)
        return bisect(a, x)

    monkeypatch.setattr(boundary_entropy, "bisect_right", counting)
    rows = _curve_rows(curve, 201)
    assert len(calls) == 201 and all(a is calls[0] for a in calls)
    assert calls[0] == [p.s for p in curve.hull]
    assert [row[3] for row in rows] == [curve.envelope(row[0]) for row in rows]


def test_cohom_reports_constant(capsys):
    pay = run_json(capsys, "cohom", "--potential", "cob1")["payload"]
    assert pay["cohomologous"] is True
    assert pay["constant"] == "1"
    pay = run_json(capsys, "cohom", "--potential", "fix0")["payload"]
    assert pay["cohomologous"] is False
    assert pay["witness"]


def test_cohom_against_a_second_potential(capsys):
    pay = run_json(capsys, "cohom", "--potential", "gold0", "--psi", "gold1")["payload"]
    assert pay["cohomologous"] is False
    assert pay["spread"] == 4.0
    assert pay["witness"] == {"low_orbit": "1", "high_orbit": "0"}
    rc, _, err = run(capsys, "cohom", "--potential", "fix0", "--psi", "hubmax")
    assert rc == 2 and "different shifts" in err


def test_facecurve_reports_the_kink(capsys):
    pay = run_json(capsys, "facecurve", "--potential", "kinkvec", "--alpha", "0,-1")["payload"]
    assert [(k["s"], k["w"], k["component"]) for k in pay["kinks"]] == [(0.5, [0.5, 0.0], 1)]
    assert pay["smooth"] is False


def test_usage_errors_exit_1(capsys):
    assert run(capsys, )[0] == 1
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys, "orbits", "--shift", "full2")[0] == 1
    assert run(capsys, "classify")[0] == 1


def test_input_errors_exit_2(capsys, tmp_path):
    rc, _, err = run(capsys, "orbits", "--shift", "nope", "--k", "1")
    assert rc == 2
    assert "nope" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    rc, _, err = run(capsys, "classify", "--shift", "full2",
                     "--potential", str(bad))
    assert rc == 2
    assert "line 1" in err and "column" in err
    rc, _, err = run(capsys, "classify", "--potential", "trivec")
    assert rc == 2


@pytest.mark.parametrize("argv, values", [
    (["rotset", "--mode", "float"], '"m": 2, "values": {"0": [NaN, 0], "1": [0, 1]}'),
    (["rotset", "--mode", "float"], '"m": 2, "values": {"0": [1, 0], "1": [Infinity, 1]}'),
    (["facecurve", "--alpha", "1,0", "--mode", "float"],
     '"m": 2, "values": {"0": [NaN, 0], "1": [0, 1]}'),
    (["facecurve", "--alpha", "1,0", "--mode", "float"],
     '"m": 2, "values": {"0": [-Infinity, 0], "1": [0, 1]}'),
    (["classify"], '"values": {"0": ["1/0"], "1": ["1"]}'),
    (["classify"], '"values": {"0": [NaN], "1": ["1"]}'),
    (["classify"], '"mode": "float", "values": {"0": ["abc"], "1": [1]}'),
    (["cohom", "--mode", "float"], '"values": {"0": [1e400], "1": [1]}')])
def test_values_that_are_not_finite_numbers_exit_2(capsys, tmp_path, argv, values):
    pot = tmp_path / "pot.json"
    pot.write_text('{"k": 1, %s}' % values)
    rc, out, err = run(capsys, *argv, "--shift", "full2", "--potential", str(pot))
    assert rc == 2 and not out and "input error" in err and "at block" in err


@pytest.mark.parametrize("cmd", ["classify", "cohom", "ztsweep"])
def test_weights_at_the_ends_of_the_double_range_run(capsys, tmp_path, cmd):
    # the edges out of 1 fall 2e308 short of beta = 1e308: not tight
    pot = tmp_path / "pot.json"
    pot.write_text('{"k": 1, "mode": "float", "values": {"0": [1e308], "1": [-1e308]}}')
    payload = run_json(capsys, cmd, "--shift", "full2", "--potential", str(pot))["payload"]
    if cmd == "cohom":
        assert not payload["cohomologous"] and payload["witness"] == {
            "high_orbit": "0", "low_orbit": "1"}
    elif cmd == "classify":
        assert payload["case"] == "VertexPeriodic" and payload["beta"] == 1e308
    else:
        assert payload["case"] == "VertexPeriodic" and payload["coefficients"] == ["1"]


def _strict(text):
    """JSON as a strict parser reads it: no NaN or Infinity tokens."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_envelopes_are_strict_json(capsys, tmp_path):
    # the cycle means 1e308 and -1e308 are finite, their spread is not: it
    # goes as the text float() reads back, and both outputs parse strictly
    pot = tmp_path / "pot.json"
    pot.write_text('{"k": 1, "mode": "float", "values": {"0": [1e308], "1": [-1e308]}}')
    rc, out, err = run(capsys, "cohom", "--shift", "full2", "--potential", str(pot),
                       "--out", str(tmp_path / "out"))
    assert rc == 0, err
    payload = _strict(out)["payload"]
    assert payload["spread"] == "inf" and float(payload["spread"]) == math.inf
    assert _strict((tmp_path / "out" / "cohom.json").read_text()) == _strict(out)


def test_an_out_that_cannot_be_written_exits_2(capsys, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory")
    rc, out, err = run(capsys, "orbits", "--shift", "full2", "--k", "3", "--out", str(taken))
    assert rc == 2 and not out
    assert f"input error: cannot write {taken}" in err and "Traceback" not in err
    assert taken.read_text() == "a file, not a directory"


def test_a_cache_that_cannot_be_written_warns(capsys, monkeypatch, tmp_path):
    census = run_json(capsys, "orbits", "--shift", "full2", "--k", "3")["payload"]
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory")
    monkeypatch.setenv(CACHE_ENV, str(taken))
    with pytest.warns(RuntimeWarning, match="cannot write orbit cache entry") as seen:
        assert run_json(capsys, "orbits", "--shift", "full2", "--k", "3")["payload"] == census
    assert len(seen) == 1 and census["count"] == 19
    assert taken.read_text() == "a file, not a directory"


def test_malformed_shift_json_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    for text in ('{"transition": 5}', '{"transition": [[1]], "labels": 3}'):
        bad.write_text(text)
        rc, _, err = run(capsys, "orbits", "--shift", str(bad), "--k", "1")
        assert rc == 2 and "input error" in err and "Traceback" not in err


def _cap_memory():
    # a schedule that never ends would otherwise fill memory until the timeout
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("tmax", ["inf", "nan"])
def test_non_finite_tmax_exits_2(tmax):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    env[CACHE_ENV] = "off"
    got = subprocess.run([sys.executable, "-m", "thermoshift.cli", "ztsweep",
                          "--potential", "threefix_a", "--tmax", tmax],
                         env=env, capture_output=True, text=True, timeout=60,
                         preexec_fn=_cap_memory)
    assert got.returncode == 2, got.stderr
    assert "input error" in got.stderr and "finite" in got.stderr


def _cap_memory_and_time():
    _cap_memory()
    resource.setrlimit(resource.RLIMIT_CPU, (1, 1))


def test_window_over_the_state_cap_exits_2(tmp_path):
    # full2 has 2^64 blocks of length 64: refused before any is built
    pot = tmp_path / "k64.json"
    pot.write_text('{"k": 64, "values": {"0": [1]}}')
    # the 2-cycle has two blocks at every k; at k = 3 * 10^6 they hold
    # 6 * 10^6 symbols, over RECODE_SYMBOL_CAP
    cycle = tmp_path / "cycle.json"
    cycle.write_text('{"transition": [[0, 1], [1, 0]]}')
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    env[CACHE_ENV] = "off"
    # each is refused within 1 s of CPU: the counts never form d^k in full
    for args in (["orbits", "--shift", "full2", "--k", "64"],
                 ["orbits", "--shift", "full2", "--k", "20000"],
                 ["orbits", "--shift", "full3", "--k", str(10 ** 7)],
                 ["orbits", "--shift", str(cycle), "--k", str(3 * 10 ** 6)],
                 ["classify", "--shift", "full2", "--potential", str(pot)]):
        got = subprocess.run([sys.executable, "-m", "thermoshift.cli", *args],
                             env=env, capture_output=True, text=True, timeout=60,
                             preexec_fn=_cap_memory_and_time)
        assert got.returncode == 2, got.stderr
        assert "input error" in got.stderr and "over cap" in got.stderr


def test_tmax_below_1_exits_2(capsys):
    # no schedule toward t -> +oo: an input error, not a numeric one
    for tmax in ("0.5", "0", "-4"):
        rc, _, err = run(capsys, "ztsweep", "--potential", "threefix_a", f"--tmax={tmax}")
        assert rc == 2 and "input error" in err and "at least 1" in err


def test_numeric_errors_exit_3(capsys, monkeypatch):
    def boom(*a, **k):
        raise NumericError("spectral certificate failed")
    monkeypatch.setattr("thermoshift.zero_temperature.zt_coefficients", boom)
    rc, _, err = run(capsys, "ztsweep", "--potential", "twofix")
    assert rc == 3
    assert "spectral certificate failed" in err


def test_sweep_without_data_exits_3(capsys, monkeypatch):
    def fail(phi, t, what):
        raise NumericError(f"no solve at t={t}")
    monkeypatch.setattr("thermoshift.zero_temperature._solve", fail)
    rc, _, err = run(capsys, "ztsweep", "--potential", "threefix_a")
    assert rc == 3
    assert "produced no data" in err


def test_cache_env_is_honoured(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    run_json(capsys, "orbits", "--shift", "golden", "--k", "3")
    assert [p.name[-8:] for p in tmp_path.glob("orbits-*.json")] == ["-k3.json"]


def test_no_cache_flag_is_a_usage_error(capsys):
    assert run(capsys, "orbits", "--shift", "golden", "--k", "2", "--no-cache")[0] == 1
    assert run(capsys, "rotset", "--potential", "trivec", "--no-cache")[0] == 1


def test_version_flag(capsys):
    rc, out, _ = run(capsys, "--version")
    assert rc == 0
    assert "thermoshift" in out
