"""Command-line interface: exit codes, artifacts, manifests, determinism."""
import argparse
import itertools
import json
from dataclasses import replace

import pytest

from condrec import cli
from condrec import experiments as ex
from condrec import functionals as fn
from condrec import solvers as sv


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
    assert lines[0].startswith("formulation,solver,variant,I,delta,seed,iterations,l2_error")


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
    # a noise level of 1 or more leaves no discrepancy budget: it used to fail every cell at stage cost
    ("deltas = 0", "deltas = 1", "[0, 1)"),
    ("deltas = 0", "deltas = 0.01, 1.5", "[0, 1)"),
    # a [verify] section makes it a verify run, refused before it samples a state
    pytest.param("max_iters = 5", "max_iters = 5\n[verify]\ncondition = chain\nsamples = 0",
                 "[verify] samples", id="verify-chain-samples"),
    pytest.param("max_iters = 5", "max_iters = 5\n[verify]\ncondition = tcc\nsamples = 0",
                 "[verify] samples", id="verify-tcc-samples"),
    pytest.param("max_iters = 5", "max_iters = 5\n[verify]\ncondition = linear-toy\ndim = 0",
                 "[verify] dim", id="verify-linear-toy-dim"),
    pytest.param("max_iters = 5", "max_iters = 5\n[verify]\ncondition = linear-toy\nsamples = 0",
                 "[verify] samples", id="verify-linear-toy-samples"),
    pytest.param("max_iters = 5", "max_iters = 5\n[verify]\ncoarse_scale = 0",
                 "scale must be >= 1", id="verify-coarse-scale"),
    pytest.param("max_iters = 5", "max_iters = 5\n[verify]\ncase = I9", "I9", id="verify-case"),
    pytest.param("max_iters = 5", "max_iters = 5\n[bounds]\nsigma_lower = 6\nsigma_upper = 1\n[verify]",
                 "sigma bounds", id="verify-bounds"),
])
def test_bad_run_value_exit_2(tmp_path, capsys, old, new, named):
    # rejected while the configs are built: no cell runs, nothing is written
    cfgp = write_config(tmp_path / "run.ini", MINIMAL.replace(old, new))
    out = tmp_path / "x"
    sub = "verify" if "[verify]" in new else "reconstruct"
    assert cli.main([sub, "--config", cfgp, "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_generate_refuses_a_noise_level_of_one_exit_2(tmp_path, capsys):
    # generate used to write data at delta = 1, which no reconstruction can use
    cfgp = write_config(tmp_path / "run.ini", MINIMAL.replace("deltas = 0", "deltas = 1"))
    out = tmp_path / "x"
    assert cli.main(["generate", "--config", cfgp, "--out", str(out)]) == 2
    assert "[0, 1)" in capsys.readouterr().err
    assert not out.exists()


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
    # the report and its summary line are named after the condition that ran
    assert text.startswith("condition: linear-toy\n")
    assert capsys.readouterr().out.startswith("linear-toy: pass;")


def test_verify_linear_toy_reads_samples(tmp_path):
    # [verify] samples sets the pair count; the default, 19, keeps the report it always had
    def report(name, extra):
        cfgp = write_config(tmp_path / f"{name}.ini", "[verify]\ncondition = linear-toy\n" + extra)
        assert cli.main(["verify", "--config", cfgp, "--out", str(tmp_path / name)]) == 0
        return (tmp_path / name / "linear-toy_report.txt").read_text()

    default = report("default", "")
    assert "samples: 19\n" in default and report("nineteen", "samples = 19\n") == default
    assert "samples: 5\n" in report("five", "samples = 5\n")


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


def test_verify_gwf_chain(tmp_path):
    cfgp = write_config(
        tmp_path / "v.ini",
        "[verify]\ncondition = chain\nsamples = 10\ncoarse_scale = 1\nradius = 0.3\n",
    )
    out = tmp_path / "rep"
    rc = cli.main(["verify", "--config", cfgp, "--out", str(out)])
    assert rc == 0
    text = (out / "chain_report.txt").read_text()
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


def test_iteration_logs_keep_the_armijo_trials_and_report_reads_them(tmp_path, capsys):
    # a projected-gradient row k holds the trials of the step that made it; row 0
    # and every Newton row leave the column empty
    stem = "iat-reduced_I1_d0.0_s1"
    logs = []
    newton = MINIMAL.replace("max_iters = 5", "max_iters = 2\nmethod = newton")
    for name, text in (("pg", MINIMAL), ("newton", newton)):
        out = tmp_path / name
        cfgp = write_config(tmp_path / f"{name}.ini", text)
        assert cli.main(["reconstruct", "--config", cfgp, "--out", str(out)]) == 0
        header, *rows = (out / f"{stem}_iters.csv").read_text().strip().split("\n")
        assert header == "k,cost,grad_sq,step,trials,wall_s"
        trials = [dict(zip(header.split(","), r.split(",")))["trials"] for r in rows]
        if name == "pg":
            assert trials[0] == "" and all(int(t) >= 1 for t in trials[1:]) and len(trials) > 1
        else:
            assert set(trials) == {""}
        logs.append(str(out / f"{stem}_iters.csv"))
    capsys.readouterr()
    assert cli.main(["report", *logs]) == 0
    assert "trials" in capsys.readouterr().out


def test_report_refuses_csvs_with_different_columns(tmp_path, capsys):
    old = tmp_path / "old.csv"
    old.write_text("formulation,I,delta,seed,iterations,l2_error,wall_s,s_per_iter,stop_reason\n"
                   "iat-reduced,1,0,1,5,0.5,1.0,0.2,max-iters\n")
    new = tmp_path / "new.csv"
    new.write_text("formulation,solver,variant,I,delta,seed,iterations,l2_error,wall_s,s_per_iter,stop_reason\n"
                   "iat-reduced,newton,2,1,0,1,5,0.5,1.0,0.2,max-iters\n")
    for inputs in ([new, old], [old, new]):
        assert cli.main(["report", *map(str, inputs), "--out", str(tmp_path / "merged.csv")]) == 2
        assert "has columns" in capsys.readouterr().err
    assert not (tmp_path / "merged.csv").exists()


def test_full_pipeline_determinism(tmp_path):
    cfgp = write_config(tmp_path / "run.ini", MINIMAL)
    texts = []
    from condrec import experiments as ex

    for sub in ("r1", "r2"):
        out = tmp_path / sub
        assert cli.main(["reconstruct", "--config", cfgp, "--out", str(out)]) == 0
        texts.append(ex.mask_timing_columns((out / "results.csv").read_text()))
    assert texts[0] == texts[1]


# every INI key a run reads, a value other than its default, the field it sets and the value there
EVERY_KEY = {
    ("run", "formulation"): ("iat-aao", "formulation", "iat-aao"),
    ("run", "cases"): ("I2", "case", "I2"),
    ("run", "deltas"): ("0.05", "delta", 0.05),
    ("run", "seed"): ("7", "seed", 7),
    ("run", "out"): ("elsewhere", "out_dir", "elsewhere"),
    ("run", "coarse_scale"): ("3", "coarse_scale", 3),
    ("run", "fine_refine"): ("2", "fine_refine", 2),
    ("run", "allow_inverse_crime"): ("yes", "allow_inverse_crime", True),
    ("run", "impedance"): ("0.25", "impedance", 0.25),
    ("run", "iat_obs_variant"): ("1", "iat_obs_variant", 1),
    ("bounds", "sigma_lower"): ("0.5", "sigma_lower", 0.5),
    ("bounds", "sigma_upper"): ("9", "sigma_upper", 9.0),
    ("solver", "method"): ("newton", "solver", "newton"),
    ("solver", "beta"): ("0.5", "beta", 0.5),
    ("solver", "max_iters"): ("17", "max_iters", 17),
    ("solver", "tau"): ("2.5", "tau", 2.5),
    ("solver", "eps_mu"): ("1e-8", "eps_mu", 1e-8),
    ("solver", "mu_max"): ("8", "mu_max", 8.0),
    ("solver", "armijo_shrink"): ("0.25", "armijo_shrink", 0.25),
    ("solver", "armijo_slope"): ("1e-3", "armijo_slope", 1e-3),
    ("solver", "step_growth"): ("3", "step_growth", 3.0),
    ("solver", "log_iterations"): ("off", "log_iterations", False),
    ("solver", "schedule"): ("a-posteriori", "newton.schedule", "a-posteriori"),
    ("solver", "alpha0"): ("2", "newton.alpha0", 2.0),
    ("solver", "theta"): ("0.3", "newton.theta", 0.3),
    ("solver", "sigma_lo"): ("0.1", "newton.sigma_lo", 0.1),
    ("solver", "sigma_hi"): ("0.9", "newton.sigma_hi", 0.9),
    ("phantom", "background"): ("1.5", "phantom.background", 1.5),
    ("phantom", "inclusion_value"): ("4", "phantom.inclusion_value", 4.0),
    ("phantom", "center_x"): ("0.2", "phantom.inclusion_center.0", 0.2),
    ("phantom", "center_y"): ("0.1", "phantom.inclusion_center.1", 0.1),
    ("phantom", "radius"): ("0.4", "phantom.inclusion_radius", 0.4),
}


def _configs(tmp_path, text):
    parser = cli._load_config(write_config(tmp_path / "run.ini", text))
    return cli._experiment_configs(parser, argparse.Namespace(seed=None, out=None))[0]


def _resolve(obj, path):
    for part in path.split("."):
        obj = obj[int(part)] if part.isdigit() else getattr(obj, part)
    return obj


def test_every_ini_key_reaches_its_dataclass_field(tmp_path):
    # an empty file gives the dataclasses' defaults; the CLI writes to results/ and keeps iteration logs
    (default,) = _configs(tmp_path, "")
    assert default == ex.ExperimentConfig(out_dir="results", log_iterations=True)
    reference = replace(default, newton=sv.NewtonConfig())
    mapped = {(s, k) for keys in (cli._CELL_KEYS, cli._NEWTON_KEYS, cli._PHANTOM_KEYS)
              for s, names in keys.items() for k in names}
    assert mapped <= set(EVERY_KEY)
    text = "".join(f"[{s}]\n" + "".join(f"{k} = {raw}\n" for (s2, k), (raw, _, _) in EVERY_KEY.items() if s2 == s)
                   for s in ("run", "bounds", "solver", "phantom"))
    (cfg,) = _configs(tmp_path, text)
    for key, (raw, path, value) in EVERY_KEY.items():
        assert _resolve(cfg, path) == value != _resolve(reference, path), key
        assert type(_resolve(cfg, path)) is type(_resolve(reference, path)), key
    # the one-cell spellings of the grid keys
    (cfg,) = _configs(tmp_path, "[run]\ncase = I28\ndelta = 0.2\n")
    assert (cfg.case, cfg.delta) == ("I28", 0.2)


@pytest.mark.parametrize("sub, setting, named", [
    ("verify", "[verify]\ncondition = linear-toy\nexploratory = ture\n", "[verify] exploratory: 'ture'"),
    ("reconstruct", MINIMAL.replace("fine_refine = 1", "fine_refine = 0\nallow_inverse_crime = yes please"),
     "[run] allow_inverse_crime: 'yes please'"),
], ids=["exploratory", "allow_inverse_crime"])
def test_a_boolean_must_be_a_boolean_word(tmp_path, capsys, sub, setting, named):
    # once, any word but 1/yes/true/on read as false
    cfgp = write_config(tmp_path / "c.ini", setting)
    assert cli.main([sub, "--config", cfgp, "--out", str(tmp_path / "x")]) == 2
    assert named in capsys.readouterr().err
    for word, value in (("On", True), ("0", False), ("no", False), ("TRUE", True)):
        (cfg,) = _configs(tmp_path, f"[run]\nallow_inverse_crime = {word}\n")
        assert cfg.allow_inverse_crime is value


def test_report_refuses_an_empty_csv(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("\n")
    assert cli.main(["report", str(empty)]) == 2
    assert str(empty) in capsys.readouterr().err


@pytest.mark.parametrize("row", ["1,2", "1,2,3,4"])
def test_report_refuses_a_row_without_the_header_fields(tmp_path, capsys, row):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text(f"a,b,c\n1,2,3\n{row}\n")
    assert cli.main(["report", str(ragged), "--out", str(tmp_path / "merged.csv")]) == 2
    err = capsys.readouterr().err
    assert str(ragged) in err and "row 2" in err
    assert not (tmp_path / "merged.csv").exists()


@pytest.mark.parametrize("sub", ["generate", "reconstruct"])
@pytest.mark.parametrize("key", ["cases", "deltas"])
def test_an_empty_cases_or_deltas_list_exit_2(tmp_path, capsys, sub, key):
    # an empty list would build no cell: generate would write an empty manifest
    text = MINIMAL.replace("cases = I1", "cases =" if key == "cases" else "cases = I1")
    text = text.replace("deltas = 0", "deltas =" if key == "deltas" else "deltas = 0")
    out = tmp_path / "x"
    assert cli.main([sub, "--config", write_config(tmp_path / "run.ini", text), "--out", str(out)]) == 2
    assert f"[run] {key}" in capsys.readouterr().err
    assert not out.exists()


def _eit_tcc_report(tmp_path, name, extra):
    text = "[verify]\ncondition = eit-tcc\nsamples = 3\ncoarse_scale = 1\nexploratory = true\n" + extra
    out = tmp_path / name
    assert cli.main(["verify", "--config", write_config(tmp_path / f"{name}.ini", text), "--out", str(out)]) == 0
    return (out / "eit-tcc_report.txt").read_text()


def test_verify_eit_tcc_reads_bounds_and_radius(tmp_path):
    base = _eit_tcc_report(tmp_path, "base", "")
    assert _eit_tcc_report(tmp_path, "radius", "radius = 0.1\n") != base
    assert _eit_tcc_report(tmp_path, "bounds", "[bounds]\nsigma_lower = 0.5\nsigma_upper = 8\n") != base


@pytest.mark.parametrize("sub", ["generate", "verify"])
@pytest.mark.parametrize("flag", [["--jobs", "2"], ["--emit-png"]])
def test_flags_only_where_they_are_read(tmp_path, capsys, sub, flag):
    cfgp = write_config(tmp_path / "run.ini", MINIMAL)
    with pytest.raises(SystemExit) as exc:
        cli.main([sub, "--config", cfgp, "--out", str(tmp_path / "x"), *flag])
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_reconstruct_newton_cell(tmp_path):
    cfgp = write_config(tmp_path / "run.ini", MINIMAL.replace("max_iters = 5", "max_iters = 2\nmethod = newton"))
    out = tmp_path / "res"
    assert cli.main(["reconstruct", "--config", cfgp, "--out", str(out)]) == 0
    header, row = (out / "results.csv").read_text().strip().split("\n")
    cell = dict(zip(header.split(","), row.split(",")))
    assert cell["solver"] == "newton" and not cell["stop_reason"].startswith("error")
    assert 1 <= int(cell["iterations"]) <= 2
    stem = "iat-reduced_I1_d0.0_s1"
    assert (out / f"{stem}_sigma.txt").exists() and (out / f"{stem}_iters.csv").exists()


def test_every_accepted_configuration_runs_alike_through_the_config_file(tmp_path, capsys):
    # the cells of test_experiments' configuration matrix, each written as an INI file and
    # run by the console entry point under --jobs 1 and --jobs 2 (one cell per delta)
    accepted = 0
    for tag, solver in itertools.product(fn.FORMULATIONS, ex.SOLVERS):
        for variant in (1, 2) if tag.startswith("iat") else (2,):
            name = f"{tag}-{solver}-{variant}"
            cfgp = write_config(tmp_path / f"{name}.ini",
                                f"[run]\nformulation = {tag}\niat_obs_variant = {variant}\ncase = I2\n"
                                "deltas = 0, 0.01\nseed = 5\ncoarse_scale = 1\nfine_refine = 1\n"
                                f"[solver]\nmethod = {solver}\nmax_iters = 2\n")
            tables = []
            for jobs in ("1", "2"):
                out = tmp_path / f"{name}-jobs{jobs}"
                rc = cli.main(["reconstruct", "--config", cfgp, "--out", str(out), "--jobs", jobs])
                if (tag, variant) == ("iat-reduced", 1):  # the one combination the configuration refuses
                    assert rc == 2 and "config error" in capsys.readouterr().err
                    break
                assert rc == 0, name
                tables.append((out / "results.csv").read_text())
            else:
                accepted += 1
                assert len(tables[0].strip().split("\n")) == 3 and "error:" not in tables[0], name
                assert ex.mask_timing_columns(tables[0]) == ex.mask_timing_columns(tables[1]), name
    assert accepted == 22
