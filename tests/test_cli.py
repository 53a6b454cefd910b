"""Command-line interface: exit codes, artifacts, manifests, determinism."""
import json

import pytest

from condrec import cli


def write_config(path, text):
    path.write_text(text)
    return str(path)


MINIMAL = """
[run]
formulation = iat-reduced
cases = I1
deltas = 0
seed = 1
coarse_scale = 1
fine_refine = 1
[solver]
max_iters = 5
"""

DELTA_LIST = """
[run]
formulation = iat-reduced
cases = I1
deltas = 0, 0.01, 0.1
seed = 1
coarse_scale = 1
fine_refine = 1
[solver]
max_iters = 3
"""


def test_help_exits_zero_without_output_files(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []
    for sub in ("generate", "reconstruct", "verify", "report"):
        with pytest.raises(SystemExit) as exc:
            cli.main([sub, "--help"])
        assert exc.value.code == 0
        capsys.readouterr()
    assert list(tmp_path.iterdir()) == []


def test_generate_minimal_config(tmp_path):
    cfgp = write_config(tmp_path / "run.ini", MINIMAL)
    out = tmp_path / "data"
    rc = cli.main(["generate", "--config", cfgp, "--out", str(out)])
    assert rc == 0
    files = sorted(p.name for p in out.iterdir())
    assert any(name.endswith("_H.txt") for name in files)
    assert "manifest.json" in files
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"] and all("sha256" in a for a in manifest["artifacts"])


def test_generate_delta_list_three_datasets(tmp_path):
    cfgp = write_config(tmp_path / "run.ini", DELTA_LIST)
    out = tmp_path / "data"
    assert cli.main(["generate", "--config", cfgp, "--out", str(out)]) == 0
    files = [p.name for p in out.iterdir() if p.name.endswith("_H.txt")]
    assert len(files) == 3


def test_generate_rerun_identical_hashes(tmp_path):
    cfgp = write_config(tmp_path / "run.ini", MINIMAL)
    hashes = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert cli.main(["generate", "--config", cfgp, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        hashes.append(sorted(a["sha256"] for a in manifest["artifacts"]))
    assert hashes[0] == hashes[1]


def test_reconstruct_single_cell(tmp_path):
    cfgp = write_config(tmp_path / "run.ini", MINIMAL)
    out = tmp_path / "res"
    rc = cli.main(["reconstruct", "--config", cfgp, "--out", str(out)])
    assert rc == 0
    lines = (out / "results.csv").read_text().strip().split("\n")
    assert len(lines) == 2
    assert lines[0].startswith("formulation,I,delta,seed,iterations,l2_error")


def test_reconstruct_table_shape(tmp_path):
    cfgp = write_config(tmp_path / "run.ini", DELTA_LIST)
    out = tmp_path / "res"
    assert cli.main(["reconstruct", "--config", cfgp, "--out", str(out)]) == 0
    lines = (out / "results.csv").read_text().strip().split("\n")
    assert len(lines) == 4  # header + 3 delta cells


FULL_GRID = """
[run]
formulation = iat-reduced
cases = I1, I2, I4, I28
deltas = 0, 0.01, 0.1
seed = 1
coarse_scale = 1
fine_refine = 1
[solver]
max_iters = 1
log_iterations = true
"""


def test_reconstruct_full_grid_twelve_rows(tmp_path):
    # the published study's 4 x 3 grid shape: one CSV row per (I, delta) cell
    cfgp = write_config(tmp_path / "run.ini", FULL_GRID)
    out = tmp_path / "res"
    assert cli.main(["reconstruct", "--config", cfgp, "--out", str(out), "--jobs", "2"]) == 0
    lines = (out / "results.csv").read_text().strip().split("\n")
    assert len(lines) == 13
    # per-iteration logs are emitted alongside
    assert any(p.name.endswith("_iters.csv") for p in out.iterdir())


def test_invalid_formulation_exit_2(tmp_path, capsys):
    bad = MINIMAL.replace("iat-reduced", "iat-bogus")
    cfgp = write_config(tmp_path / "run.ini", bad)
    rc = cli.main(["reconstruct", "--config", cfgp, "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "iat-bogus" in err and "iat-reduced" in err  # names the tag and the allowed set


@pytest.mark.parametrize("setting", ["method = newtn", "method = newton\nschedule = a-posterior"])
def test_misspelt_solver_setting_exit_2(tmp_path, capsys, setting):
    # rejected while the configs are built, before any cell runs
    cfgp = write_config(tmp_path / "run.ini", MINIMAL + setting + "\n")
    out = tmp_path / "x"
    assert cli.main(["reconstruct", "--config", cfgp, "--out", str(out)]) == 2
    assert setting.split()[-1] in capsys.readouterr().err
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize("old, new, named", [
    ("cases = I1", "cases = I99", "I99"),
    ("seed = 1", "seed = 1\niat_obs_variant = 3", "variant 3"),
    ("seed = 1", "seed = 1\niat_obs_variant = 1", "variant 1"),  # the reduced map has no psi
])
def test_bad_run_value_exit_2(tmp_path, capsys, old, new, named):
    # rejected while the configs are built: no cell runs, no table is written
    cfgp = write_config(tmp_path / "run.ini", MINIMAL.replace(old, new))
    out = tmp_path / "x"
    assert cli.main(["reconstruct", "--config", cfgp, "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not (out / "results.csv").exists()


def test_missing_config_exit_2(tmp_path, capsys):
    rc = cli.main(["generate", "--config", str(tmp_path / "nope.ini")])
    assert rc == 2


def test_verify_linear_toy(tmp_path, capsys):
    cfgp = write_config(tmp_path / "v.ini", "[verify]\ncondition = linear-toy\n")
    out = tmp_path / "rep"
    rc = cli.main(["verify", "--config", cfgp, "--out", str(out)])
    assert rc == 0
    text = (out / "linear-toy_report.txt").read_text()
    assert "pass: True" in text


def test_verify_gwf_tcc(tmp_path):
    cfgp = write_config(
        tmp_path / "v.ini",
        "[verify]\ncondition = tcc\nsamples = 20\ncoarse_scale = 1\nradius = 0.3\n",
    )
    out = tmp_path / "rep"
    rc = cli.main(["verify", "--config", cfgp, "--out", str(out)])
    assert rc == 0
    text = (out / "tcc_report.txt").read_text()
    assert "pass: True" in text


def test_verify_eit_exploratory_flag(tmp_path):
    cfgp = write_config(
        tmp_path / "v.ini",
        "[verify]\ncondition = eit-tcc\nsamples = 5\ncoarse_scale = 1\nexploratory = true\n",
    )
    out = tmp_path / "rep"
    rc = cli.main(["verify", "--config", cfgp, "--out", str(out)])
    assert rc == 0  # failures permitted in exploratory mode
    assert (out / "eit-tcc_report.txt").exists()


def test_report_merges_csvs(tmp_path, capsys):
    a = tmp_path / "a.csv"
    a.write_text("formulation,I,delta,seed,iterations,l2_error,wall_s,s_per_iter,stop_reason\n"
                 "iat-reduced,1,0,1,5,0.5,1.0,0.2,max-iters\n")
    b = tmp_path / "b.csv"
    b.write_text("formulation,I,delta,seed,iterations,l2_error,wall_s,s_per_iter,stop_reason\n"
                 "eit-reduced,28,0.1,2,7,0.9,2.0,0.3,discrepancy\n")
    merged = tmp_path / "merged.csv"
    rc = cli.main(["report", str(a), str(b), "--out", str(merged)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "iat-reduced" in out and "eit-reduced" in out
    assert len(merged.read_text().strip().split("\n")) == 3


def test_full_pipeline_determinism(tmp_path):
    cfgp = write_config(tmp_path / "run.ini", MINIMAL)
    texts = []
    from condrec import experiments as ex

    for sub in ("r1", "r2"):
        out = tmp_path / sub
        assert cli.main(["reconstruct", "--config", cfgp, "--out", str(out)]) == 0
        texts.append(ex.mask_timing_columns((out / "results.csv").read_text()))
    assert texts[0] == texts[1]
