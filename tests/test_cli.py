import json
from pathlib import Path

import numpy as np
import pytest

from krflow.cli import main


def test_soliton_fik(tmp_path, capsys):
    out = tmp_path / "fik.csv"
    rc = main(["soliton", "--family", "fik", "--n", "2048", "--f-max", "50",
               "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "C = 1.4142135624" in text
    assert out.exists()
    meta = (tmp_path / "fik.csv.meta").read_text()
    assert meta.startswith("family=fik\n")
    assert "f_max=50" in meta


def test_soliton_fik_f_max_defaults_to_50(tmp_path):
    out = tmp_path / "fik.csv"
    assert main(["soliton", "--family", "fik", "--n", "256", "--out", str(out)]) == 0
    assert "f_max=50\n" in (tmp_path / "fik.csv.meta").read_text()


def test_soliton_cao_koiso_rejects_f_max(tmp_path, capsys):
    out = tmp_path / "kc.csv"
    rc = main(["soliton", "--family", "cao-koiso", "--n", "256", "--f-max", "0.5",
               "--out", str(out)])
    assert rc == 2
    assert "--f-max applies only to --family fik" in capsys.readouterr().err
    assert not out.exists()


def test_soliton_cao_koiso(tmp_path, capsys):
    out = tmp_path / "kc.csv"
    rc = main(["soliton", "--family", "cao-koiso", "--n", "1024", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    c = float([l for l in text.splitlines() if l.startswith("C =")][0].split("=")[1])
    assert 0.5 < c < 1.0


def test_soliton_node_minimum(tmp_path):
    rc = main(["soliton", "--family", "fik", "--n", "8",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2


@pytest.mark.parametrize("family", ["fik", "cao-koiso"])
def test_soliton_node_maximum(tmp_path, capsys, family):
    from krflow.flow import _GRID_N_MAX
    rc = main(["soliton", "--family", family, "--n", str(_GRID_N_MAX + 1),
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err == "error: node count 65537 outside [64, 65536]\n"
    assert not (tmp_path / "x.csv").exists()


def test_unknown_level_exits_2(tmp_path):
    with pytest.raises(SystemExit) as ex:
        main(["verify", "--level", "bogus"])
    assert ex.value.code == 2


def test_quick_level_runs_the_documented_criteria():
    # the README's `verify --level quick` line and the acceptance docstring
    # promise A1-A3, A8, A11 and A14 (A8 and A14 on the reduced-scale run)
    import os
    import re
    from krflow.acceptance import QUICK_IDS
    assert QUICK_IDS == ("A1", "A2", "A3", "A8", "A11", "A14")
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        assert re.search(r"verify --level quick +# A1-A3, A8, A11, A14 ", fh.read())


def test_verify_quick_end_to_end(capsys):
    # the quick level runs QUICK_IDS in order, each criterion that reads a
    # run (A8, A14) starting with its run check, and reports the tally last
    from krflow.acceptance import QUICK_IDS
    assert main(["verify", "--level", "quick"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [l.split()[:2] for l in lines[:-1]] == [[cid, "PASS"] for cid in QUICK_IDS]
    for line in lines[:-1]:
        if line.split()[0] in ("A8", "A14"):
            assert line.split(": ", 1)[1].startswith("run completed = 1 (ok: completed); ")
    assert lines[-1] == "6/6 criteria passed"


def test_criteria_fail_on_runs_that_did_not_complete():
    # runs cut off by max_steps stand in for every cached run of the full
    # level: no snapshot was taken and no record reaches a fit window, and
    # each criterion that reads a run prints a FAIL line holding only its
    # run checks, without reading the run
    from krflow.acceptance import CRITERIA, AcceptanceContext
    from krflow.flow import FlowConfig, run_flow
    ctx = AcceptanceContext(level="full")
    kc = run_flow(FlowConfig(a0=1.0, b0=3.0, initial_kind="cao_koiso", grid_n=128,
                             cfl=0.5, stop_tau=2.0, snap_taus=(1.0, 2.0), max_steps=50))
    ctx._cache["kc"] = (kc, 0.1)
    for key, engine, cut in (("canonical", "unscaled", 50.0),
                             ("coupled50", "both", 50.0), ("coupled100", "both", 100.0)):
        arts = run_flow(FlowConfig(a0=1.0, b0=10.0, grid_n=128, engine=engine,
                                   phi_cut=cut, max_steps=50))
        ctx._cache[key] = (arts, 0.1)
    assert [arts.status for arts, _ in ctx._cache.values()] == ["max_steps"] * 4
    stopped = "run max_steps = 0 (VIOLATED: completed)"
    table = dict(CRITERIA)
    for cid in ("A4", "A5", "A6", "A7", "A8", "A9", "A10", "A12", "A13", "A14"):
        res = table[cid](ctx)
        tags = ("phi_cut=50 ", "phi_cut=100 ") if cid == "A13" else ("",)
        assert not res.passed
        assert res.line().split()[:2] == [cid, "FAIL"]
        assert res.line().endswith(f"{res.label}: " + "; ".join(t + stopped for t in tags))


def test_readme_lists_every_config_key():
    # the README's config table: one row per FlowConfig field, in field
    # order, with the field's default as the config parser reads it
    import os
    import re
    from dataclasses import MISSING, fields
    from krflow.flow import _FIELD_PARSERS, FlowConfig
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        rows = re.findall(r"^\| `(\w+)` \| ([^|]+?) \|", fh.read(), re.M)
    assert [k for k, _ in rows] == [f.name for f in fields(FlowConfig)]
    for (key, doc), f in zip(rows, fields(FlowConfig)):
        if f.default is MISSING:
            assert doc == "required", key
        else:
            text = "" if doc == "empty" else doc.strip("`")
            assert _FIELD_PARSERS[key](text) == f.default, key


def test_readme_example_config_parses():
    # the README's example config is a valid config file
    import os
    import re
    from krflow.flow import parse_config_text
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        example = re.search(r"^Example:\n\n```\n(.*?)^```", fh.read(), re.M | re.S)
    cfg = parse_config_text(example.group(1))
    assert (cfg.a0, cfg.b0, cfg.grid_n) == (1.0, 10.0, 2048)
    assert cfg.snap_taus == (2.0, 4.0, 6.0)


@pytest.mark.slow
def test_evolve_analyze_pipeline(tmp_path, capsys):
    cfgp = tmp_path / "run.cfg"
    cfgp.write_text("a0 = 1.0\nb0 = 10.0\ngrid_n = 256\nstop_tau = 2.2\n"
                    "record_every = 25\nsnap_taus = 1.0, 2.0\n")
    outd = tmp_path / "out"
    rc = main(["evolve", "--config", str(cfgp), "--out-dir", str(outd)])
    assert rc == 0
    for name in ("series.csv", "anchor.csv", "violations.csv", "manifest.json",
                 "snap_tau1_radial.csv", "snap_tau2_dilated.csv"):
        assert (outd / name).exists(), name
    man = json.loads((outd / "manifest.json").read_text())
    assert man["status"] == "completed"
    assert man["config"]["grid_n"] == 256

    rep = tmp_path / "report.json"
    rc = main(["analyze", "--series", str(outd / "series.csv"),
               "--report", str(rep), "--window", "1.0:2.2"])
    assert rc == 0
    data = json.loads(rep.read_text())
    assert data["decay_rate_delta0"] > 0
    out = capsys.readouterr().out
    assert "gauge slope" in out


def test_evolve_bad_kahler_class_exits_2(tmp_path):
    for text in ("a0 = 1.0\nb0 = 2.9\n",
                 # classes the engines cannot represent in floats: the Hermite
                 # boundary stencil's powers of the node offsets underflow
                 # (a0 = 1e-100) or overflow (a0 = 1e150)
                 "a0 = 1e-100\nb0 = 1\nstop_tau = 1000\ngrid_n = 128\nmax_steps = 20\n",
                 "a0 = 1e150\nb0 = 1e151\n"):
        cfgp = tmp_path / "bad.cfg"
        cfgp.write_text(text)
        rc = main(["evolve", "--config", str(cfgp), "--out-dir", str(tmp_path / "o")])
        assert rc == 2, text


def test_evolve_colliding_snapshot_labels_exit_2(tmp_path, capsys):
    cfgp = tmp_path / "bad.cfg"
    cfgp.write_text("a0 = 1.0\nb0 = 10.0\nstop_tau = 0.05\n"
                    "snap_taus = 0.01000001, 0.01000002\n")
    rc = main(["evolve", "--config", str(cfgp), "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert "share file labels" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_evolve_unknown_key_exits_2(tmp_path, capsys):
    cfgp = tmp_path / "bad.cfg"
    cfgp.write_text("a0 = 1.0\nb0 = 10.0\ngirdn = 256\n")
    rc = main(["evolve", "--config", str(cfgp), "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert "girdn" in capsys.readouterr().err


def test_analyze_empty_series_exits_3(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    rc = main(["analyze", "--series", str(p), "--report", str(tmp_path / "r.json")])
    assert rc == 3


def test_analyze_short_row_exits_3(tmp_path, capsys):
    p = tmp_path / "series.csv"
    p.write_text("step,t,tau,a,b,R_sigma0,lambda2_sigma0,sup_err_c0,sup_err_c1,"
                 "max_F,min_yphi,max_yphi,gauge_C,max_rm,dt\r\n26,0.1,0.2\r\n")
    rc = main(["analyze", "--series", str(p), "--report", str(tmp_path / "r.json")])
    assert rc == 3
    assert f"{p}: line 2 has 3 columns" in capsys.readouterr().err


def test_evolve_two_row_profile_exits_2(tmp_path, capsys):
    prof = tmp_path / "two_rows.csv"
    prof.write_text("f,u\n1,0\n10,0\n")
    cfgp = tmp_path / "two.cfg"
    cfgp.write_text(f"a0 = 1.0\nb0 = 10.0\ninitial_kind = from_file\n"
                    f"initial_path = {prof}\n")
    rc = main(["evolve", "--config", str(cfgp), "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert "not positive on the interior" in capsys.readouterr().err


def test_evolve_from_file_without_path_exits_2(tmp_path, capsys):
    cfgp = tmp_path / "nofile.cfg"
    cfgp.write_text("a0 = 1.0\nb0 = 10.0\ninitial_kind = from_file\n")
    rc = main(["evolve", "--config", str(cfgp), "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert "initial_path" in capsys.readouterr().err


def test_evolve_malformed_profile_exits_2(tmp_path, capsys):
    prof = tmp_path / "bad_profile.csv"
    prof.write_text("f,u\n1.0,0.0,0.0\n5.5,2.25,0.0\n10.0,0.0,0.0\n")
    cfgp = tmp_path / "bad.cfg"
    cfgp.write_text(f"a0 = 1.0\nb0 = 10.0\ninitial_kind = from_file\n"
                    f"initial_path = {prof}\n")
    rc = main(["evolve", "--config", str(cfgp), "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(prof) in err and "expected two columns" in err


@pytest.mark.parametrize("rows, why", [
    ("1.0,0.0\n5.5,2.25\n4.0,2.0\n10.0,0.0\n", "not strictly increasing"),
    ("1.0,0.0\n5.5,nan\n10.0,0.0\n", "infs or NaNs"),
], ids=["f_not_increasing", "u_nan"])
def test_evolve_invalid_profile_exits_2(tmp_path, capsys, rows, why):
    prof = tmp_path / "bad_profile.csv"
    prof.write_text("f,u\n" + rows)
    cfgp = tmp_path / "bad.cfg"
    cfgp.write_text(f"a0 = 1.0\nb0 = 10.0\ninitial_kind = from_file\n"
                    f"initial_path = {prof}\n")
    rc = main(["evolve", "--config", str(cfgp), "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(prof) in err and why in err


@pytest.mark.parametrize("f_max", ["0.5", "1.0", "nan", "inf", "1e31", "1e200"])
def test_soliton_fik_f_max_not_above_one_or_not_finite_exits_2(tmp_path, capsys, f_max):
    out = tmp_path / "fik.csv"
    rc = main(["soliton", "--family", "fik", "--n", "64", "--f-max", f_max,
               "--out", str(out)])
    assert rc == 2
    assert "f_max must lie in (1, 1e30]" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_non_finite_value_exits_2(tmp_path, capsys):
    cfgp = tmp_path / "nan.cfg"
    cfgp.write_text("a0 = 1.0\nb0 = 10.0\nstop_tau = nan\n")
    outd = tmp_path / "o"
    rc = main(["evolve", "--config", str(cfgp), "--out-dir", str(outd)])
    assert rc == 2
    assert "stop_tau must be finite" in capsys.readouterr().err
    assert not outd.exists()


def test_evolve_max_steps_reports_step_count(tmp_path, capsys):
    cfgp = tmp_path / "short.cfg"
    cfgp.write_text("a0 = 1.0\nb0 = 10.0\ngrid_n = 128\nmax_steps = 7\n")
    rc = main(["evolve", "--config", str(cfgp), "--out-dir", str(tmp_path / "o")])
    assert rc == 3
    assert "run did not complete: max_steps at step 7\n" in capsys.readouterr().err


_GOLDEN_SERIES = str(Path(__file__).parent / "data" / "golden" / "unscaled" / "series.csv")


@pytest.mark.parametrize("window", ["5", "a:b", "1:2:3", "6.5:5"])
def test_analyze_malformed_window_is_a_usage_error(tmp_path, capsys, window):
    rep = tmp_path / "r.json"
    with pytest.raises(SystemExit) as ex:
        main(["analyze", "--series", _GOLDEN_SERIES, "--report", str(rep),
              "--window", window])
    assert ex.value.code == 2
    assert "argument --window" in capsys.readouterr().err
    assert not rep.exists()


@pytest.mark.parametrize("argv, code", [(["--window=-1:2"], 0), (["--window", "-1:2"], 2)])
def test_analyze_negative_window_needs_the_equals_form(tmp_path, capsys, argv, code):
    # argparse reads a separate value that starts with '-' and is not a plain
    # number as an option, so a window below tau = 0 is written --window=lo:hi
    from krflow.analysis import write_series_csv
    from test_analysis import synthetic_series
    series = tmp_path / "series.csv"
    write_series_csv(synthetic_series(tau0=-2.0, tau1=4.0), series)
    rep = tmp_path / "r.json"
    args = ["analyze", "--series", str(series), "--report", str(rep)] + argv
    if code == 0:
        assert main(args) == 0
        assert json.loads(rep.read_text())["fit_window"] == [-1.0, 2.0]
    else:
        with pytest.raises(SystemExit) as ex:
            main(args)
        assert ex.value.code == 2
        assert "expected one argument" in capsys.readouterr().err
        assert not rep.exists()


def _assert_one_line_output_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1


def test_evolve_unwritable_out_dir_exits_2_before_the_run(tmp_path, capsys, monkeypatch):
    import krflow.cli
    monkeypatch.setattr(krflow.cli, "run_flow", lambda cfg: pytest.fail("the run started"))
    cfgp = tmp_path / "run.cfg"
    cfgp.write_text("a0 = 1.0\nb0 = 10.0\ngrid_n = 128\n")
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    rc = main(["evolve", "--config", str(cfgp), "--out-dir", str(blocker)])
    assert rc == 2
    _assert_one_line_output_error(capsys)


def test_soliton_unwritable_out_exits_2(tmp_path, capsys):
    rc = main(["soliton", "--family", "fik", "--n", "256",
               "--out", str(tmp_path / "missing" / "fik.csv")])
    assert rc == 2
    _assert_one_line_output_error(capsys)


def test_analyze_unwritable_report_exits_2(tmp_path, capsys):
    from krflow.analysis import write_series_csv
    from test_analysis import synthetic_series
    series = tmp_path / "series.csv"
    write_series_csv(synthetic_series(), series)
    rc = main(["analyze", "--series", str(series),
               "--report", str(tmp_path / "missing" / "r.json")])
    assert rc == 2
    _assert_one_line_output_error(capsys)
