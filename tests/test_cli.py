"""Command-line interface: subcommands, outputs, exit codes."""
import csv
import json
import os
import re

import numpy as np
import pytest
from click.testing import CliRunner

from tndecode.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture()
def runner():
    return CliRunner()


def parse_class_values(output):
    vals = []
    for line in output.splitlines():
        if line.startswith("class "):
            vals.append(float(line.split(":")[1]))
    return vals


def test_decode_five_qubit_matches_oracle(runner):
    args = ["--code", "five-qubit", "--p", "0.1", "--syndrome", "0110"]
    dec = runner.invoke(main, ["decode", *args, "--engine", "exact"])
    assert dec.exit_code == 0, dec.output
    orc = runner.invoke(main, ["oracle", *args])
    assert orc.exit_code == 0, orc.output
    got = parse_class_values(dec.output)
    want = parse_class_values(orc.output)
    assert np.allclose(got, want, rtol=1e-9)
    assert dec.output.splitlines()[-1] == orc.output.splitlines()[-1]


def test_decode_surface2d_matches_oracle(runner):
    args = ["--code", "surface2d", "--sector", "x", "--p", "0.1", "--d", "3",
            "--syndrome", "010010"]
    dec = runner.invoke(main, ["decode", *args])
    orc = runner.invoke(main, ["oracle", *args])
    assert dec.exit_code == 0 and orc.exit_code == 0, dec.output + orc.output
    assert np.allclose(parse_class_values(dec.output),
                       parse_class_values(orc.output), rtol=1e-9)


def test_input_errors_exit_2(runner, tmp_path):
    toy = str(tmp_path / "toy.dem")
    with open(toy, "w") as f:
        f.write("error(0.1) D0 L0\n")
    unknown = str(tmp_path / "unknown.dem")
    with open(unknown, "w") as f:
        f.write("error(0.1) D0 L0\nshift_detectors 1\n")
    cases = [
        ["decode", "--code", "five-qubit", "--dem", "x.dem", "--p", "0.1",
         "--syndrome", "0000"],
        ["decode", "--p", "0.1", "--syndrome", "0000"],  # neither source
        ["decode", "--code", "five-qubit", "--syndrome", "0000"],  # no p
        ["decode", "--code", "five-qubit", "--p", "0.1",
         "--syndrome", "01a0"],  # bad syndrome characters
        ["decode", "--code", "five-qubit", "--p", "0.1",
         "--syndrome", "000"],  # syndrome too short
        ["decode", "--dem", toy, "--syndrome", "01"],  # one detector
        ["decode", "--code", "five-qubit", "--p", "0.1"],  # no syndrome
        ["decode", "--code", "surface2d", "--p", "0.1",
         "--syndrome", "000000"],  # sector required in 2D
        ["decode", "--dem", os.path.join(DATA, "missing.dem"),
         "--syndrome", "0"],
        ["compress-dem", "--dem", os.path.join(DATA, "missing.dem"),
         "--out", "x.npz"],
        ["oracle", "--code", "surface3d", "--d", "3", "--p", "0.1",
         "--sector", "z", "--syndrome", "0"],  # n > 16
        ["decode", "--code", "surface2d", "--sector", "x", "--d", "4",
         "--p", "0.1", "--syndrome", "000000"],  # even 2D distance
        ["decode", "--dem", unknown, "--syndrome", "0"],  # unknown DEM line
        ["decode", "--dem", toy, "--p", "50", "--syndrome", "0"],  # p > 1
        ["decode", "--code", "five-qubit", "--p", "1.5",
         "--syndrome", "0000"],  # p > 1
        ["sample", "--code", "five-qubit", "--p", "0.1", "--shots", "0",
         "--out", str(tmp_path / "x.csv")],  # no shots
        ["threshold", "--dem", toy, "--p", "0.5", "--p", "1", "--p", "2",
         "--d", "3", "--d", "5", "--out", str(tmp_path / "x.json")],  # a DEM has one distance
    ]
    for args in cases:
        res = runner.invoke(main, args)
        assert res.exit_code == 2, (args, res.output)


def test_signed_dem_targets_exit_2(runner, tmp_path):
    # a signed index is an input error naming its line, not a traceback or a
    # silently renumbered detector
    for i, line in enumerate(["error(0.1) D0 L-1", "error(0.1) D0 D-1", "detector(0) D-3"]):
        path = str(tmp_path / f"signed{i}.dem")
        with open(path, "w") as f:
            f.write(f"error(0.2) D0 D1 L0\n{line}\n")
        res = runner.invoke(main, ["decode", "--dem", path, "--syndrome", "00"])
        assert res.exit_code == 2, (line, res.output)
        assert "line 2: malformed target" in res.output


def test_out_of_range_chi_and_p_exit_2(runner, tmp_path):
    # a bond dimension below 1 is refused before anything runs, and a p
    # outside [0, 1] is an input error on every code, not a late failure
    out = str(tmp_path / "x.csv")
    sector_x = ["--code", "surface2d", "--sector", "x", "--d", "3"]
    cases = [
        ["decode", *sector_x, "--p", "0.05", "--chi-mps", "0", "--syndrome", "100000"],
        ["decode", *sector_x, "--p", "0.05", "--chi-peps", "-1", "--syndrome", "100000"],
        ["decode", *sector_x, "--p", "0.05", "--chi-split", "0", "--syndrome", "100000"],
        ["decode", "--dem", os.path.join(DATA, "rotated_d3.dem"), "--chi-compress", "0",
         "--syndrome", "0" * 24],
        ["compress-dem", "--dem", os.path.join(DATA, "rotated_d3.dem"),
         "--chi-compress", "-2", "--out", str(tmp_path / "x.npz")],
        ["decode", *sector_x, "--p", "1.5", "--syndrome", "100000"],
        ["decode", *sector_x, "--p", "-0.1", "--syndrome", "100000"],
        ["decode", *sector_x, "--p", "nan", "--syndrome", "100000"],
        ["oracle", *sector_x, "--p", "1.5", "--syndrome", "100000"],
        ["sample", *sector_x, "--p", "1.5", "--shots", "1", "--out", out],
        ["decode", "--code", "surface3d", "--sector", "z", "--p", "1.5", "--syndrome", "0"],
        ["decode", "--code", "surface3d", "--p", "1.5", "--syndrome", "0"],
    ]
    for args in cases:
        res = runner.invoke(main, args)
        assert res.exit_code == 2, (args, res.output)
    assert not os.path.exists(out)
    assert not os.path.exists(tmp_path / "x.npz")


def test_sample_writes_csv_and_manifest(runner, tmp_path):
    out = str(tmp_path / "runs.csv")
    args = ["sample", "--code", "five-qubit", "--p", "0.05", "--shots", "50",
            "--seed", "3", "--engine", "exact", "--out", out]
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    res2 = runner.invoke(main, args)
    assert res2.exit_code == 0
    with open(out, newline="") as f:
        reader = csv.DictReader(f)
        rows = list(reader)
    assert reader.fieldnames[:6] == ["problem", "p", "d", "shots",
                                     "failures", "rate"]
    assert len(rows) == 2  # one row per run
    # same seed, same counts; "seconds" is wall time and may differ
    for row in rows:
        del row["seconds"]
    assert rows[0] == rows[1]
    manifest = json.load(open(str(tmp_path / "runs.config.json")))
    assert manifest["engine"] == "exact" and manifest["chi_peps"] == 24
    assert manifest["code"] == "five-qubit" and manifest["dem"] is None
    assert manifest["p"] == 0.05 and manifest["d"] == 3
    assert manifest["chi_compress"] is None
    assert manifest["seed"] == 3 and manifest["shots"] == 50


def test_sample_refuses_to_mix_configurations(runner, tmp_path):
    out = str(tmp_path / "runs.csv")
    manifest = str(tmp_path / "runs.config.json")
    args = ["sample", "--code", "five-qubit", "--p", "0.05", "--shots", "20",
            "--out", out]
    assert runner.invoke(main, args).exit_code == 0
    written = open(out).read()
    kept = open(manifest).read()
    # a setting the rows do not record
    res = runner.invoke(main, args + ["--engine", "exact", "--chi-mps", "8"])
    assert res.exit_code == 2, res.output
    assert "engine" in res.output and "chi_mps" in res.output
    assert open(out).read() == written and open(manifest).read() == kept
    # the rows record p, d, seed and shots, so these may vary
    res = runner.invoke(main, ["sample", "--code", "five-qubit", "--p", "0.1",
                               "--shots", "10", "--seed", "4", "--out", out])
    assert res.exit_code == 0, res.output
    assert len(open(out).read().splitlines()) == 3
    # a CSV without its manifest
    os.remove(manifest)
    written = open(out).read()
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert open(out).read() == written and not os.path.exists(manifest)


def test_threshold_writes_json(runner, tmp_path):
    out = str(tmp_path / "cross.json")
    res = runner.invoke(main, [
        "threshold", "--code", "surface2d", "--sector", "x",
        "--picture", "detector", "--engine", "mps", "--chi-mps", "16",
        "--p", "0.08", "--p", "0.10", "--p", "0.12",
        "--d", "3", "--d", "5", "--shots", "40", "--seed", "1", "--out", out,
    ])
    assert res.exit_code == 0, res.output
    data = json.load(open(out))
    assert data["ps"] == [0.08, 0.10, 0.12]
    assert set(data["curves"]) == {"3", "5"}
    assert len(data["curves"]["3"]) == 3
    assert "crossing_found" in data


def test_threshold_argument_validation(runner, tmp_path):
    out = str(tmp_path / "x.json")
    res = runner.invoke(main, [
        "threshold", "--code", "five-qubit", "--p", "0.1", "--p", "0.2",
        "--p", "0.3", "--d", "3", "--shots", "10", "--out", out,
    ])
    assert res.exit_code == 2
    res = runner.invoke(main, [
        "threshold", "--code", "five-qubit", "--p", "0.1",
        "--d", "3", "--d", "5", "--shots", "10", "--out", out,
    ])
    assert res.exit_code == 2


def test_threshold_checks_every_p_before_decoding(runner, tmp_path):
    out = tmp_path / "x.json"
    res = runner.invoke(main, [
        "threshold", "--code", "surface2d", "--sector", "x",
        "--p", "0.1", "--p", "0.2", "--p", "1.5", "--d", "3", "--d", "5",
        "--shots", "20", "--out", str(out),
    ])
    assert res.exit_code == 2, res.output
    assert "p out of range" in res.output
    assert "d=" not in res.output
    assert not out.exists()


def test_compress_dem_and_decode_from_cache(runner, tmp_path):
    dem = os.path.join(DATA, "rotated_d3.dem")
    out = str(tmp_path / "cache.npz")
    res = runner.invoke(main, ["compress-dem", "--dem", dem,
                               "--chi-compress", "4", "--out", out])
    assert res.exit_code == 0, res.output
    assert os.path.exists(out)
    assert "mechanisms" in res.output
    # what the compression approximated and cost, on a line of its own
    report = re.fullmatch(
        r"truncation cut (\S+) in (\d+) simple updates, (\S+) CPU s, peak RSS (\d+) MB",
        res.output.splitlines()[-1])
    assert report, res.output
    cut, updates, cpu, rss = report.groups()
    assert 0 <= float(cut) < 1 and int(updates) > 0
    assert float(cpu) >= 0 and int(rss) > 0
    # decoding straight from the DEM with on-the-fly compression
    res = runner.invoke(main, [
        "decode", "--dem", dem, "--p", "0.005", "--chi-compress", "4",
        "--chi-peps", "8", "--chi-split", "4", "--chi-mps", "16",
        "--syndrome", "0" * 24,
    ])
    assert res.exit_code == 0, res.output
    assert "chosen class: 0" in res.output


def test_dem_decode_matches_oracle_small(runner, tmp_path):
    dem = str(tmp_path / "toy.dem")
    with open(dem, "w") as f:
        f.write("error(0.1) D0\nerror(0.2) D0 D1 L0\nerror(0.3) D1\n"
                "logical_observable L0\n")
    for syndrome in ("00", "01", "10", "11"):
        dec = runner.invoke(main, ["decode", "--dem", dem,
                                   "--syndrome", syndrome])
        orc = runner.invoke(main, ["oracle", "--dem", dem,
                                   "--syndrome", syndrome])
        assert dec.exit_code == 0 and orc.exit_code == 0
        assert np.allclose(parse_class_values(dec.output),
                           parse_class_values(orc.output), rtol=1e-9)


def test_numerical_failure_exits_3(runner):
    # exact contraction of a d=5 3D network blows through the dense-size cap
    from tndecode.codes import surface_code_3d

    n_checks = surface_code_3d(5).h_z.shape[0]
    res = runner.invoke(main, [
        "decode", "--code", "surface3d", "--sector", "x", "--d", "5",
        "--p", "0.2", "--engine", "exact", "--syndrome", "0" * n_checks,
    ])
    assert res.exit_code == 3, res.output
    assert "numerical failure" in res.output


def test_out_of_memory_exits_3_with_one_line(runner, tmp_path, monkeypatch):
    from tndecode import cli

    def no_memory(model, chi):
        raise MemoryError("Unable to allocate 1.00 GiB for an array")

    monkeypatch.setattr(cli, "compress_dem", no_memory)
    out = tmp_path / "x.npz"
    res = runner.invoke(main, ["compress-dem", "--dem", os.path.join(DATA, "rotated_d3.dem"),
                               "--chi-compress", "16", "--out", str(out)])
    assert res.exit_code == 3, res.output
    assert re.fullmatch(r"out of memory: Unable to allocate 1.00 GiB for an array, "
                        r"\S+ CPU s, peak RSS \d+ MB\n", res.output), res.output
    assert not out.exists()


def test_engine_value_errors_exit_3(runner, tmp_path, monkeypatch):
    # a ValueError from inside a contraction is a numerical failure in
    # every command, not an input error
    from tndecode import harness

    def broken(net, chi):
        raise ValueError("engine failure")

    monkeypatch.setattr(harness, "mps_contract_2d", broken)
    code = ["--code", "surface2d", "--sector", "x", "--engine", "mps"]
    cases = [
        ["decode", *code, "--p", "0.1", "--syndrome", "0" * 6],
        ["sample", *code, "--p", "0.1", "--shots", "3",
         "--out", str(tmp_path / "x.csv")],
        ["threshold", *code, "--p", "0.08", "--p", "0.1", "--p", "0.12",
         "--d", "3", "--d", "5", "--shots", "3", "--out", str(tmp_path / "x.json")],
    ]
    for args in cases:
        res = runner.invoke(main, args)
        assert res.exit_code == 3, (args, res.output)
        assert "numerical failure: engine failure" in res.output


def test_toy_dem_whose_network_simplify_absorbs(runner, tmp_path):
    # at --p 2 the compressed network of some sign settings simplifies to
    # a negative scalar without coordinates
    from tndecode.dem import brute_force_class_probs, parse_dem

    text = ("error(0.1) D0 L0\nerror(0.2) D0 D1\nerror(0.1) D1 L0\n"
            "error(0.05) D1\n")
    dem = str(tmp_path / "toy.dem")
    with open(dem, "w") as f:
        f.write(text)
    opts = ["--dem", dem, "--p", "2", "--chi-compress", "4"]
    res = runner.invoke(main, ["sample", *opts, "--shots", "5",
                               "--out", str(tmp_path / "toy.csv")])
    assert res.exit_code == 0, res.output
    model = parse_dem(text).scaled(2)
    for syndrome in ("00", "01", "10", "11"):
        res = runner.invoke(main, ["decode", *opts, "--syndrome", syndrome])
        assert res.exit_code == 0, (syndrome, res.output)
        want = brute_force_class_probs(model, [int(c) for c in syndrome])
        assert np.allclose(parse_class_values(res.output), want,
                           rtol=1e-10, atol=1e-14), syndrome
