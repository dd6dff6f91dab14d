import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import idsa_lab
from idsa_lab.cli import main, run
from idsa_lab.config import EXPERIMENTS, KEYS, SCENARIO, ConfigError, describe_keys, parse_config
from idsa_lab.grids import ProblemSpec, cell_width
from idsa_lab.idsa import Schedule, SolverConfig


def test_parse_minimal_with_defaults():
    cfg = parse_config("experiment = convergence\nR = 6\nB = 1\n")
    assert cfg.experiment == "convergence"
    assert cfg.r_max == 18.0
    assert cfg.n_cells == 19998
    assert cfg.kappa_list == (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)
    assert cfg.variant == "new"


def test_parse_comments_and_overrides():
    text = "# a comment\nexperiment = err0  # trailing comment\n"
    cfg = parse_config(text, overrides={"kappaR_list": "4, 6, 10"})
    assert cfg.kappaR_list == (4.0, 6.0, 10.0)


def test_parse_rejects_bad_input():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("experiment = err0\nnot_a_key = 1\n")
    with pytest.raises(ConfigError, match="missing required key"):
        parse_config("B = 1\n")
    with pytest.raises(ConfigError, match="kappa"):
        parse_config("experiment = oracle\nkappa = -1\n")
    with pytest.raises(ConfigError, match="invalid value"):
        parse_config("experiment = oracle\nn_cells = many\n")
    with pytest.raises(ConfigError, match="experiment"):
        parse_config("experiment = nonsense\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("experiment oracle\n")


def test_spurious_defaults_match_reference_setup():
    cfg = parse_config("experiment = spurious\n")
    assert cfg.n_cells == 50
    assert cfg.dt == 0.1
    assert cfg.kappa == 1.0 and cfg.R == 6.0 and cfg.B == 1.0 and cfg.kappa_s == 0.0
    assert len(cfg.eps_list) == 12
    assert max(cfg.eps_list) == pytest.approx(0.1)
    assert min(cfg.eps_list) == pytest.approx(1e-4)


# parse_config("experiment = X").resolved(): the keys X reads, at the
# global defaults or at those X sets differently, with experiment and
# output_dir.
_RESOLVED_DEFAULTS = {
    "B": 1.0, "R": 6.0, "bound_margin": 1e-06, "dt": 0.1,
    "eps_list": [0.1, 0.053367, 0.0284804, 0.0151991, 0.00811131, 0.00432876, 0.00231013,
                 0.00123285, 0.000657933, 0.000351119, 0.000187382, 0.0001],
    "exclude_largest": 5, "horizon": 1000000.0, "kappa": 1.0,
    "kappaR_list": [0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 15.0, 20.0, 30.0, 50.0, 100.0],
    "kappa_list": [1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0], "kappa_outside": 0.0,
    "kappa_s": 0.0, "n_cells": 2000, "oracle_tol": 1e-10, "output_dir": "idsa-lab-out",
    "r_max": 18.0, "snapshot_times": [], "stationarity_tol": 1e-08, "t_end": 1000.0,
    "variant": "new", "vb_threshold": 0.9,
}


def _reads(keys: str, **own) -> dict:
    return {**{key: _RESOLVED_DEFAULTS[key] for key in keys.split()}, **own}


_DOMAIN_SPLIT = _reads("B R kappa r_max dt snapshot_times",
                       n_cells=19998, stationarity_tol=1e-10, t_end=400.0)
_RESOLVED_BY_EXPERIMENT = {
    "oracle": _reads("B R kappa r_max n_cells oracle_tol"),
    "solve-idsa": _reads("B R kappa kappa_outside kappa_s r_max dt t_end stationarity_tol",
                         n_cells=50, snapshot_times=[5.0, 500.0, 1000.0]),
    "solve-old": _DOMAIN_SPLIT,
    "solve-new": _DOMAIN_SPLIT,
    "spurious": _reads("B R kappa kappa_s r_max dt eps_list exclude_largest horizon",
                       n_cells=50),
    "instability": _reads("B R kappa kappa_outside kappa_s r_max dt vb_threshold bound_margin",
                          n_cells=10000, snapshot_times=[10.0, 50.0, 100.0, 200.0],
                          t_end=200.0),
    "convergence": _reads("B R r_max variant kappa_list oracle_tol", n_cells=19998),
    "err0": _reads("kappaR_list"),
}


@pytest.mark.parametrize("experiment", sorted(_RESOLVED_BY_EXPERIMENT))
def test_default_config_resolves_to_pinned_parameters(experiment):
    expected = {**_RESOLVED_BY_EXPERIMENT[experiment], "experiment": experiment,
                "output_dir": "idsa-lab-out"}
    assert parse_config(f"experiment = {experiment}").resolved() == expected


def test_config_rejects_a_key_set_twice(tmp_path, capsys):
    # The second value used to win without a word.
    text = "experiment = oracle\nn_cells = 10\n# a comment\n\nn_cells = 40\n"
    out = tmp_path / "a" / "out"
    assert _run_cli(tmp_path, text, f"output_dir={out}") == 2
    assert "'n_cells' is set twice, on lines 2 and 5" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()
    # --set still overrides the value the file sets.
    assert parse_config("experiment = oracle\nn_cells = 10\n", {"n_cells": "40"}).n_cells == 40


def test_cli_rejects_a_key_set_twice_by_set(tmp_path, capsys):
    # The last --set used to win without a word.
    out = tmp_path / "a" / "out"
    code = _run_cli(tmp_path, "experiment = err0\n", f"output_dir={out}",
                    "kappaR_list=1", " kappaR_list = 2")
    assert code == 2
    assert "'kappaR_list' is set twice by --set" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()
    # A --set still overrides a value the file sets.
    assert _run_cli(tmp_path, "experiment = err0\nkappaR_list = 1\n", f"output_dir={out}",
                    "kappaR_list=2") == 0
    assert (out / "err0.csv").read_text().splitlines()[-1].startswith("2,")


def test_kappa_floor_is_not_a_key(tmp_path, capsys):
    # The opacity floor of the switched scheme is a constant, not a setting.
    out = tmp_path / "a" / "out"
    text = "experiment = solve-idsa\nkappa_floor = 1e-30\n"
    assert _run_cli(tmp_path, text, f"output_dir={out}") == 2
    assert "unknown key: 'kappa_floor'" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()


def test_describe_keys_lists_everything():
    text = describe_keys()
    for key in KEYS:
        assert key in text
    # The keys of each experiment, with the defaults it sets itself.
    assert "  convergence  B R r_max n_cells=19998 variant kappa_list oracle_tol\n" in text
    assert text.endswith("\n  err0         kappaR_list")


def _run_cli(tmp_path, text, *sets):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(text)
    argv = ["run", str(cfg_file)]
    for s in sets:
        argv += ["--set", s]
    return main(argv)


def test_cli_err0_roundtrip(tmp_path):
    out = tmp_path / "out"
    code = _run_cli(tmp_path, "experiment = err0\n", f"output_dir={out}")
    assert code == 0
    body = (out / "err0.csv").read_text()
    assert body.splitlines()[1] == "kappaR,err0"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"] == "idsa-lab"
    assert manifest["outputs"] == ["err0.csv"]
    # The manifest records the keys the run reads, and only those.
    assert manifest["parameters"] == {
        "experiment": "err0", "output_dir": str(out),
        "kappaR_list": [0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 15.0, 20.0, 30.0, 50.0, 100.0],
    }


# Small runs of each experiment, and for each key a value other than every
# default that the runs that do not read it admit.
_SMALL_RUNS = {
    "oracle": "n_cells = 40\n",
    "solve-idsa": "n_cells = 30\nt_end = 2\nsnapshot_times = 1, 2\n",
    "solve-old": "n_cells = 60\nt_end = 2\nsnapshot_times = 1\n",
    "solve-new": "n_cells = 60\nt_end = 2\nsnapshot_times = 1\n",
    "spurious": "eps_list = 0.1, 0.05, 0.02\nexclude_largest = 0\n",
    "instability": "n_cells = 400\nt_end = 5\nsnapshot_times = 2, 5\n",
    "convergence": "n_cells = 90\nkappa_list = 1, 2\n",
    "err0": "kappaR_list = 1, 2, 4\n",
}
_OTHER_VALUE = {
    "B": "2", "R": "5", "kappa": "3", "kappa_outside": "0.1", "kappa_s": "0.1", "r_max": "20",
    "n_cells": "40", "dt": "0.05", "t_end": "50", "stationarity_tol": "1e-6", "variant": "old",
    "kappa_list": "1, 2", "eps_list": "0.1, 0.05", "exclude_largest": "2", "kappaR_list": "1, 2",
    "oracle_tol": "1e-8", "snapshot_times": "1, 2", "vb_threshold": "0.5", "bound_margin": "0.1",
    "horizon": "100",
}
_UNREAD = [(exp, key) for exp, spec in EXPERIMENTS.items() for key in KEYS
           if key not in ("experiment", "output_dir", *spec.reads)]


def _bodies(out):
    """Each file but the manifest, without its ``#`` lines."""
    return {p.name: [line for line in p.read_bytes().splitlines() if not line.startswith(b"#")]
            for p in out.iterdir() if p.name != "manifest.json"}


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("small")
    runs = {}

    def get(experiment):
        if experiment not in runs:
            cfg = root / f"{experiment}.cfg"
            cfg.write_text(f"experiment = {experiment}\n{_SMALL_RUNS[experiment]}")
            assert main(["run", str(cfg), "--set", f"output_dir={root / experiment}"]) == 0
            runs[experiment] = root / experiment
        return runs[experiment]

    return get


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_run_records_and_echoes_the_keys_it_reads(small_run, experiment):
    out = small_run(experiment)
    reads = {"experiment", "output_dir", *EXPERIMENTS[experiment].reads}
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["parameters"]) == reads
    for name in manifest["outputs"]:
        if name.endswith(".csv"):
            echo = [line[2:].split(" = ")[0] for line in (out / name).read_text().splitlines()
                    if line.startswith("# ")]
            scenario = [key for key in ("experiment", *SCENARIO) if key in reads]
            assert echo[: len(scenario)] == scenario
            assert not set(echo[len(scenario):]) & set(SCENARIO)


@pytest.mark.parametrize("experiment, key", _UNREAD)
def test_a_key_the_run_does_not_read_changes_nothing(tmp_path, capsys, small_run, experiment, key):
    base = small_run(experiment)
    capsys.readouterr()
    out = tmp_path / "a" / "out"
    text = f"experiment = {experiment}\n{_SMALL_RUNS[experiment]}"
    code = _run_cli(tmp_path, text, f"output_dir={out}", f"{key}={_OTHER_VALUE[key]}")
    err = capsys.readouterr().err
    if key in ("kappa_outside", "kappa_s"):
        # The run would go on at 0 instead.
        assert code == 2
        assert f"{experiment} does not read {key}: {key} must be 0" in err
        assert not (tmp_path / "a").exists()
        return
    assert code == 0
    assert f"note: {experiment} does not read {key}; it is ignored and not recorded\n" in err
    assert _bodies(out) == _bodies(base)
    parameters = json.loads((out / "manifest.json").read_text())["parameters"]
    assert set(parameters) == {"experiment", "output_dir", *EXPERIMENTS[experiment].reads}


def test_cli_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    text = "experiment = oracle\nn_cells = 40\n"
    assert _run_cli(tmp_path, text, f"output_dir={a}") == 0
    assert _run_cli(tmp_path, text, f"output_dir={b}") == 0
    assert (a / "oracle.csv").read_bytes() == (b / "oracle.csv").read_bytes()


def test_cli_oracle_csv_content(tmp_path):
    out = tmp_path / "out"
    assert _run_cli(tmp_path, "experiment = oracle\nn_cells = 40\n", f"output_dir={out}") == 0
    lines = (out / "oracle.csv").read_text().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    assert any(l.startswith("# kappa = 1") for l in meta)
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "r,J,H,K,h,k"
    data = np.array([[float(x) for x in l.split(",")] for l in lines[len(meta) + 1 :]])
    assert data.shape == (40, 6)
    assert np.all(data[:, 1] > 0) and np.all(data[:, 1] <= 1.0 + 1e-12)
    assert np.all(data[:, 4] >= -1e-12) and np.all(data[:, 4] <= 1.0)


def test_cli_solve_idsa_snapshots(tmp_path):
    out = tmp_path / "out"
    code = _run_cli(
        tmp_path,
        "experiment = solve-idsa\nn_cells = 30\nt_end = 2\nsnapshot_times = 1, 2\n",
        f"output_dir={out}",
    )
    assert code == 0
    lines = (out / "snapshots.csv").read_text().splitlines()
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "t,r,Jt,Js,h_t,h_s,regime"
    first = next(l for l in lines if l.startswith("1,"))
    assert first.split(",")[-1] in ("reaction", "diffusion", "free_streaming")


def _idsa_blocks(path):
    """(t, regime column) of each block of a solve-idsa snapshots.csv, in file order."""
    lines = path.read_text().splitlines()
    n = int(next(line for line in lines if line.startswith("# n_cells = ")).split("=")[1])
    rows = [line.split(",") for line in lines if line[0].isdigit()]
    return [(rows[i][0], [row[-1] for row in rows[i : i + n]]) for i in range(0, len(rows), n)]


def test_cli_solve_idsa_default_writes_every_snapshot(tmp_path):
    # The default run is stationary at step 133; the march goes on to the
    # snapshots at 500 and 1000, and the final state is written last.
    out = tmp_path / "out"
    assert _run_cli(tmp_path, "experiment = solve-idsa\n", f"output_dir={out}") == 0
    blocks = _idsa_blocks(out / "snapshots.csv")
    assert [t for t, _ in blocks] == ["5", "500", "1000", "13.300000000000001"]
    lines = (out / "snapshots.csv").read_text().splitlines()
    data = np.array([[float(x) for x in line.split(",")[:6]] for line in lines if line[0].isdigit()])
    Jt, Js, h_t, h_s = data[:, 2:].T
    assert np.all(Jt + Js > 0.0)
    assert np.array_equal(h_t, Jt / (Jt + Js)) and np.array_equal(h_s, Js / (Jt + Js))


def test_cli_solve_idsa_final_regime_does_not_depend_on_snapshots(tmp_path):
    # At kappa_outside = 0.01 the switch chatters: the source that produced
    # the state at t = 50 and the one it would feed next differ on most
    # cells.  The final block carries the former, snapshot or not, and is
    # written last even when a snapshot holds the same state.
    runs = []
    for name, times in (("a", "5"), ("b", "5, 50")):
        text = f"experiment = solve-idsa\nkappa_outside = 0.01\nt_end = 50\nsnapshot_times = {times}\n"
        assert _run_cli(tmp_path, text, f"output_dir={tmp_path / name}") == 0
        runs.append(_idsa_blocks(tmp_path / name / "snapshots.csv"))
    assert [t for t, _ in runs[0]] == ["5", "50"]
    assert [t for t, _ in runs[1]] == ["5", "50", "50"]
    assert runs[0][-1] == runs[1][-1] == runs[1][1]


def test_cli_solve_new_runs(tmp_path):
    out = tmp_path / "out"
    code = _run_cli(
        tmp_path, "experiment = solve-new\nn_cells = 60\n", f"output_dir={out}"
    )
    assert code == 0
    lines = (out / "snapshots.csv").read_text().splitlines()
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "t,r,Jt,Js,H,K,h,k"


def test_cli_convergence_small(tmp_path):
    out = tmp_path / "out"
    code = _run_cli(
        tmp_path,
        "experiment = convergence\nn_cells = 300\nkappa_list = 1, 4\n",
        f"output_dir={out}",
    )
    assert code == 0
    assert (out / "convergence.csv").exists()
    fit = (out / "fit.txt").read_text()
    assert "errJ" in fit and "exponent" in fit


def test_cli_spurious_small(tmp_path):
    out = tmp_path / "out"
    code = _run_cli(
        tmp_path,
        "experiment = spurious\neps_list = 0.1, 0.03\nexclude_largest = 0\n",
        f"output_dir={out}",
    )
    assert code == 0
    lines = (out / "spurious.csv").read_text().splitlines()
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "eps,time,censored"
    # Each row runs at kappa_outside = its eps, so the scenario echo leaves the key out.
    assert not any(l.startswith("# kappa_outside") for l in lines)
    assert "# kappa = 1" in lines
    fit = (out / "fit.txt").read_text()
    assert "exponent" in fit


def test_spurious_rejects_kappa_outside(tmp_path, monkeypatch):
    # Each row sets kappa_outside to its eps; a value set in the config used
    # to be overridden without a word.
    monkeypatch.chdir(tmp_path)
    assert _run_cli(tmp_path, "experiment = spurious\nkappa_outside = 5\n") == 2
    assert not (tmp_path / "idsa-lab-out").exists()
    with pytest.raises(ConfigError, match="kappa_outside must be 0"):
        parse_config("experiment = spurious\nkappa_outside = 0.01\n")
    # 0 is admitted, as a key the run does not read.
    assert parse_config("experiment = spurious\nkappa_outside = 0\n").unread == ("kappa_outside",)


def test_cli_instability_small(tmp_path):
    out = tmp_path / "out"
    code = _run_cli(
        tmp_path,
        "experiment = instability\nn_cells = 400\nt_end = 5\nsnapshot_times = 2, 5\n",
        f"output_dir={out}",
    )
    assert code == 0
    lines = (out / "instability.csv").read_text().splitlines()
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "t,virtual_boundary,nonmonotone_flag,sup_norm"
    assert any(l.startswith("# vb_threshold") for l in lines)


def test_cli_unwritable_output_exit_4(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file where a directory must go")
    code = _run_cli(tmp_path, "experiment = err0\n", f"output_dir={blocker / 'sub'}")
    assert code == 4


def test_cli_config_error_exit_2(tmp_path):
    assert _run_cli(tmp_path, "experiment = oracle\nkappa = -1\n") == 2
    assert _run_cli(tmp_path, "experiment = oracle\nkappa_outside = 0.5\n") == 2
    assert _run_cli(tmp_path, "experiment = err0\n", "bogus") == 2


def test_rejected_run_leaves_no_output_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _run_cli(tmp_path, "experiment = oracle\nkappa_outside = 0.5\n") == 2
    assert not (tmp_path / "idsa-lab-out").exists()
    with pytest.raises(ConfigError, match="bare sphere"):
        parse_config("experiment = solve-old\nkappa_s = 0.1\n")
    with pytest.raises(ConfigError, match="bare sphere"):
        parse_config("experiment = convergence\nkappa_outside = 0.5\n")
    # Rejected by the scheme, after the run has made its output directory:
    # one cell inside R leaves no room for the interface.
    nested = tmp_path / "a" / "b"
    assert _run_cli(tmp_path, "experiment = solve-new\nn_cells = 2\n", f"output_dir={nested}") == 2
    assert not (tmp_path / "a").exists()


def test_cli_rejects_oracle_tol_below_roundoff(tmp_path):
    # Unattainable budgets used to bisect every panel at every level.
    out = tmp_path / "out"
    assert _run_cli(tmp_path, "experiment = oracle\noracle_tol = 1e-30\n", f"output_dir={out}") == 2
    assert not out.exists()
    with pytest.raises(ConfigError, match="oracle_tol must be >= 1e-15"):
        parse_config("experiment = convergence\noracle_tol = 1e-16\n")
    assert parse_config("experiment = oracle\noracle_tol = 1e-15\n").oracle_tol == 1e-15


@pytest.mark.parametrize(
    "n_cells, kappa, tol, floor", [(2000, 100, "1e-15", "1e-13"), (19998, 1000, "1e-14", "1e-12")]
)
def test_cli_rejects_oracle_tol_below_the_kappa_R_floor(tmp_path, capsys, n_cells, kappa, tol, floor):
    # These tolerances used to bisect panels just inside R until the
    # live-panel cap stopped the run with exit 3; the floor rejects them up
    # front, names the smallest admissible one, and that one runs.
    text = f"experiment = oracle\nn_cells = {n_cells}\nkappa = {kappa}\n"
    out = tmp_path / "a" / "out"
    assert _run_cli(tmp_path, text + f"oracle_tol = {tol}\n", f"output_dir={out}") == 2
    assert f"the smallest admissible oracle_tol there is {floor}" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()
    assert _run_cli(tmp_path, text + f"oracle_tol = {floor}\n", f"output_dir={out}") == 0
    # convergence takes the floor of its largest kappa
    with pytest.raises(ConfigError, match=f"kappa\\*R = {6 * kappa:g}"):
        parse_config(f"experiment = convergence\nkappa_list = 1, {kappa}\noracle_tol = {tol}\n")
    parse_config(f"experiment = convergence\nkappa_list = 1, {kappa}\noracle_tol = {floor}\n")


def test_cli_rejects_unbounded_spurious_sweep(tmp_path):
    out = f"output_dir={tmp_path / 'out'}"
    assert _run_cli(tmp_path, "experiment = spurious\neps_list = 0.1, inf\n", out) == 2
    assert _run_cli(tmp_path, "experiment = spurious\nhorizon = inf\n", out) == 2
    assert not (tmp_path / "out" / "spurious.csv").exists()
    with pytest.raises(ConfigError, match="eps_list entries must be positive and finite"):
        parse_config("experiment = spurious\neps_list = 0.1, 0.01, nan\n")
    with pytest.raises(ConfigError, match="horizon must be finite"):
        parse_config("experiment = spurious\nhorizon = inf\n")


def test_config_rejects_a_horizon_with_no_finite_step_count(tmp_path, capsys):
    # horizon / dt overflows: the sweep would have no step to end at.  This
    # used to pass the config and exit 2 from inside the run.
    text = "experiment = spurious\ndt = 1e-300\nhorizon = 1e10\n"
    with pytest.raises(ConfigError, match=r"^horizon must be >= 0 and below 2\^63 steps of dt, "
                                          r"got horizon = 1e\+10 at dt = 1e-300$"):
        parse_config(text)
    out = tmp_path / "a" / "out"
    assert _run_cli(tmp_path, text, f"output_dir={out}") == 2
    assert "configuration error: horizon must be" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()


@pytest.mark.parametrize("key", ["kappa", "kappa_outside", "kappa_s"])
def test_cli_rejects_non_finite_scenario(tmp_path, key):
    # err0 never builds the oracle, so a regression here fails fast instead of
    # bisecting NaN panels until memory runs out.
    out = tmp_path / "out"
    assert _run_cli(tmp_path, "experiment = err0\n", f"output_dir={out}", f"{key}=inf") == 2
    assert not (out / "err0.csv").exists()
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        parse_config(f"experiment = oracle\n{key} = inf\n")


def test_config_rejects_non_finite_values():
    for text in ("t_end = inf", "snapshot_times = 1, inf", "dt = inf", "kappa_list = 1, inf"):
        with pytest.raises(ConfigError, match="must be finite"):
            parse_config(f"experiment = solve-idsa\n{text}\n")


def test_cli_missing_config_exit_4(tmp_path):
    assert main(["run", str(tmp_path / "nope.cfg")]) == 4


def test_cli_solver_failure_exit_3(tmp_path):
    # At n = 100 the transient sup(Jt+Js) overshoots B by several percent
    # (13% over long runs; still bounded, decaying by n >= 400), tripping
    # the hard boundedness failure: a real end-to-end exit-3 path.
    out = tmp_path / "out"
    code = _run_cli(
        tmp_path,
        "experiment = instability\nn_cells = 100\nt_end = 5\nsnapshot_times = 5\n",
        f"output_dir={out}",
    )
    assert code == 3
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "UnboundedError"
    assert (out / "manifest.json").exists()
    # The margin is a config key; relaxing it lets the same run finish.
    code = _run_cli(
        tmp_path,
        "experiment = instability\nn_cells = 100\nt_end = 5\nsnapshot_times = 5\n",
        f"output_dir={tmp_path / 'out2'}", "bound_margin=0.5",
    )
    assert code == 0


def test_rerun_removes_the_previous_runs_outputs(tmp_path):
    # Each run into one directory leaves exactly the files its manifest
    # lists: a one-eps sweep after a three-eps one drops the old fit.txt, a
    # run that exits 3 drops the CSV before it, and a run that succeeds
    # drops the error record.  Files no manifest listed stay.
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("not written by a run\n")

    def rerun(text, code):
        assert _run_cli(tmp_path, text, f"output_dir={out}") == code
        listed = json.loads((out / "manifest.json").read_text())["outputs"]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [*listed, "manifest.json", "notes.txt"]
        )
        return listed

    sweep = "experiment = spurious\nexclude_largest = 0\neps_list = "
    assert rerun(sweep + "0.1, 0.05, 0.03\n", 0) == ["spurious.csv", "fit.txt"]
    csv = (out / "spurious.csv").read_bytes()
    assert rerun(sweep + "0.1\n", 0) == ["spurious.csv"]
    # The row of eps = 0.1, the first of three before, is the same bytes.
    assert (out / "spurious.csv").read_bytes().splitlines()[-1] == csv.splitlines()[-3]
    failing = "experiment = instability\nn_cells = 92\nt_end = 5\nsnapshot_times = 5\n"
    assert rerun(failing, 3) == ["error.json"]
    assert rerun("experiment = err0\nkappaR_list = 1, 2\n", 0) == ["err0.csv"]


@pytest.mark.parametrize("n_cells, code", [(60, 0), (92, 3)])
def test_instability_manifest_records_the_diffusion_number(tmp_path, n_cells, code):
    # dt / (3 kappa dr^2): 0.417 at 60 cells, inside the explicit limit 1/2;
    # 0.871 at 92 cells, where the run overshoots B and its error says so.
    out = tmp_path / "out"
    text = f"experiment = instability\nn_cells = {n_cells}\nt_end = 5\nsnapshot_times = 5\n"
    assert _run_cli(tmp_path, text, f"output_dir={out}") == code
    manifest = json.loads((out / "manifest.json").read_text())
    number = 0.1 / (3.0 * (18.0 / n_cells) ** 2)
    assert manifest["diffusion_number"] == pytest.approx(number, rel=1e-12)
    if code == 3:
        message = json.loads((out / "error.json").read_text())["message"]
        assert message.endswith(f"diffusion number dt/(3 kappa dr^2) = {number:.3g}")


def test_console_entry_point(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("experiment = err0\n")
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "idsa_lab.cli", "run", str(cfg), "--set", f"output_dir={out}"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (out / "err0.csv").exists()


def test_import_leaves_scipy_unloaded(tmp_path):
    # scipy is a test dependency only: importing the package and running
    # both domain-split schemes, which solve tridiagonal systems, never load it.
    src = str(Path(idsa_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    runs = []
    for variant in ("old", "new"):
        cfg = tmp_path / f"{variant}.cfg"
        cfg.write_text(f"experiment = solve-{variant}\nn_cells = 300\nsnapshot_times = 1\n"
                       f"output_dir = {tmp_path / variant}\n")
        runs.append(f"assert main(['run', {str(cfg)!r}]) == 0")
    code = "\n".join([
        "import idsa_lab, idsa_lab.cli, sys",
        "assert 'scipy' not in sys.modules",
        "from idsa_lab.cli import main",
        *runs,
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)",
    ])
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for variant in ("old", "new"):
        assert (tmp_path / variant / "snapshots.csv").exists()


@pytest.mark.parametrize("experiment", ["solve-idsa", "solve-old", "solve-new", "instability"])
def test_cli_rejects_snapshot_times_on_one_step(tmp_path, experiment):
    # 1 and 1.04 both round to step 10; the run would write one block for both.
    out = tmp_path / "a" / "out"
    text = f"experiment = {experiment}\nn_cells = 60\nsnapshot_times = 2, 1, 1.04\n"
    assert _run_cli(tmp_path, text, f"output_dir={out}") == 2
    assert not (tmp_path / "a").exists()
    with pytest.raises(ConfigError, match="name one step twice"):
        parse_config(f"experiment = {experiment}\ndt = 0.5\nsnapshot_times = 1, 1.2\n")


@pytest.mark.parametrize("experiment", ["solve-old", "solve-new", "instability"])
def test_cli_rejects_snapshot_time_at_step_zero(tmp_path, experiment):
    # 0.04 rounds to step 0, which these runs never write.
    out = tmp_path / "a" / "out"
    text = f"experiment = {experiment}\nn_cells = 60\nsnapshot_times = 0.04, 1\n"
    assert _run_cli(tmp_path, text, f"output_dir={out}") == 2
    assert not (tmp_path / "a").exists()
    with pytest.raises(ConfigError, match="name step 0 or earlier"):
        parse_config(f"experiment = {experiment}\nsnapshot_times = -1, 1\n")


@pytest.mark.parametrize("experiment", ["solve-old", "solve-new"])
def test_cli_rejects_t_end_before_the_first_step(tmp_path, capsys, experiment):
    # 0.04 rounds to step 0: the final state would be the zero data, where
    # solve-new has no interface gradient and solve-old no h = H / J.
    out = tmp_path / "a" / "out"
    text = f"experiment = {experiment}\nn_cells = 300\nt_end = 0.04\n"
    assert _run_cli(tmp_path, text, f"output_dir={out}") == 2
    err = capsys.readouterr().err
    assert "dt = 0.1" in err and "needs at least one step" in err
    assert not (tmp_path / "a").exists()


def test_failed_write_leaves_no_output_dir(tmp_path, capsys):
    # Past the config check, a solve-old run ending at the zero state fails
    # while it writes snapshots.csv; its .tmp file must not keep the new
    # directory alive.
    out = tmp_path / "a" / "out"
    cfg = parse_config(f"experiment = solve-old\nn_cells = 300\noutput_dir = {out}\n")
    cfg.values["t_end"] = 0.04
    assert run(cfg) == 2
    assert "field values must be finite" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()


def test_solve_idsa_keeps_its_step_zero_snapshot(tmp_path):
    out = tmp_path / "out"
    text = "experiment = solve-idsa\nn_cells = 30\nt_end = 1\nsnapshot_times = 0.04, 1\n"
    assert _run_cli(tmp_path, text, f"output_dir={out}") == 0
    lines = (out / "snapshots.csv").read_text().splitlines()
    assert {line.split(",")[0] for line in lines if line[0].isdigit()} == {"0", "1"}


# Inputs that a sweep of edge values over every key found crashing with a
# traceback (exit 1) or stepping toward 1e301 steps: each derives a step
# count of 2^63 or more, a cell width whose square is not a normal double,
# or a kappa R whose (2 kappa R)^2 is not.  (experiment, key, value)
_DERIVED_PROBES = [
    *[(exp, "dt", "1e-300")
      for exp in ("solve-idsa", "spurious", "instability", "solve-old", "solve-new")],
    *[(exp, key, "1e300") for exp in ("solve-idsa", "instability")
      for key in ("t_end", "snapshot_times")],
    *[(exp, "snapshot_times", "1e300") for exp in ("solve-old", "solve-new")],
    ("solve-new", "R", "1e-300"),
    ("solve-new", "kappa", "1e-300"),
    ("instability", "R", "1e-300"),
    ("instability", "r_max", "1e300"),
]


@pytest.mark.parametrize("experiment, key, value", _DERIVED_PROBES)
def test_cli_rejects_unrepresentable_derived_quantities(tmp_path, capsys, experiment, key,
                                                         value):
    out = tmp_path / "a" / "out"
    text = f"experiment = {experiment}\n{key} = {value}\n"
    assert _run_cli(tmp_path, text, f"output_dir={out}") == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "Traceback" not in err
    assert f"{key} = {float(value):g}" in err
    assert not (tmp_path / "a").exists()


@pytest.mark.parametrize("entry", ["1e-300", "-2", "1e200"])
def test_convergence_checks_each_kappa_list_entry_as_a_kappa(tmp_path, capsys, entry):
    # kappa_list = 1e-300 used to pass the config, then write a NaN failure
    # row with a RuntimeWarning and exit 0.
    out = tmp_path / "a" / "out"
    text = f"experiment = convergence\nn_cells = 90\nkappa_list = 1, {entry}\n"
    assert _run_cli(tmp_path, text, f"output_dir={out}") == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: kappa_list: ")
    assert f"kappa = {float(entry):g}" in err
    assert not (tmp_path / "a").exists()


def test_convergence_at_a_small_kappa_writes_no_failure(tmp_path):
    # kappa = 1e-9 and 1e-150 used to write NaN rows failing with "field
    # values must be finite", after a RuntimeWarning: the closed form's
    # 1 - X coth X cancelled to 0.
    out = tmp_path / "out"
    text = "experiment = convergence\nn_cells = 90\nkappa_list = 1, 1e-9, 1e-150\n"
    assert _run_cli(tmp_path, text, f"output_dir={out}") == 0
    header, *rows = _bodies(out)["convergence.csv"]
    assert header == b"kappa,errJ,errH,errK,failure"
    assert [float(row.split(b",")[0]) for row in rows] == [1.0, 1e-9, 1e-150]
    for row in rows:
        *errors, failure = row.split(b",")
        assert failure == b"" and all(np.isfinite(float(e)) for e in errors)


def test_solve_new_at_a_tiny_kappa_runs(tmp_path):
    # At kappa = 1e-150 the closed form of J(R) used to cancel to 0, so the
    # run's flux factors were NaN and it exited 2 with "field values must be
    # finite".
    out = tmp_path / "out"
    text = "experiment = solve-new\nn_cells = 90\nkappa = 1e-150\n"
    assert _run_cli(tmp_path, text, f"output_dir={out}") == 0
    assert (out / "snapshots.csv").exists()


@pytest.mark.parametrize("n_cells", ["10000000000000", str(2**31)])
def test_cli_rejects_more_cells_than_the_kernels_index(tmp_path, capsys, n_cells):
    # n_cells = 1e13 used to pass the config, then exit 1 with an
    # _ArrayMemoryError traceback from make_uniform_grid, leaving its
    # output directory behind.
    out = tmp_path / "a" / "out"
    text = f"experiment = oracle\nn_cells = {n_cells}\n"
    assert _run_cli(tmp_path, text, f"output_dir={out}") == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: n_cells must be ") and "Traceback" not in err
    assert f"n_cells = {n_cells}" in err
    assert not (tmp_path / "a").exists()


def test_a_run_that_cannot_allocate_exits_2(tmp_path, capsys, monkeypatch):
    def out_of_memory(cfg, out, manifest):
        raise MemoryError("Unable to allocate 72.8 TiB")

    monkeypatch.setitem(idsa_lab.cli._RUNNERS, "oracle", out_of_memory)
    out = tmp_path / "a" / "out"
    assert _run_cli(tmp_path, "experiment = oracle\n", f"output_dir={out}") == 2
    err = capsys.readouterr().err
    assert err == ("configuration error: cannot allocate the run's arrays: "
                   "Unable to allocate 72.8 TiB\n")
    assert not (tmp_path / "a").exists()


# Each pair ends on step 0 at dt = 0.1: t_end = 0.04 was accepted, t_end = 0
# and horizon = 0 exited 2.  Now all are SolverConfig's t_end >= 0.
_STEP_ZERO_RUNS = [
    ("experiment = solve-idsa\nn_cells = 30\nsnapshot_times = 1\n", "t_end"),
    ("experiment = instability\nn_cells = 60\nsnapshot_times = 1\n", "t_end"),
    ("experiment = spurious\neps_list = 0.1, 0.05\n", "horizon"),
]


@pytest.mark.parametrize("text, key", _STEP_ZERO_RUNS)
def test_a_run_may_end_on_step_0(tmp_path, text, key):
    runs = [tmp_path / "zero", tmp_path / "near"]
    for out, value in zip(runs, ("0", "0.04")):
        assert _run_cli(tmp_path, text, f"{key}={value}", f"output_dir={out}") == 0
    assert _bodies(runs[0]) == _bodies(runs[1])


# dt = 1e-16 with an end 100 steps ahead.  Each run used to exit 2 naming the
# end it does not read, left at its default (horizon = 1e+06; t_end = 1000
# for spurious), which is 2^63 steps or more of that dt.
_SMALL_DT_RUNS = [
    ("experiment = instability\nt_end = 1e-14\nsnapshot_times = 1e-14\n", "horizon"),
    ("experiment = solve-idsa\nt_end = 1e-14\nsnapshot_times = 1e-14\n", "horizon"),
    ("experiment = solve-old\nt_end = 1e-14\nsnapshot_times = 1e-14\n", "horizon"),
    ("experiment = spurious\nhorizon = 1e-14\neps_list = 0.1, 0.05\n", "t_end"),
]


@pytest.mark.parametrize("text, unread", _SMALL_DT_RUNS)
def test_a_small_dt_is_checked_against_the_ends_a_run_reads_or_sets(tmp_path, text, unread):
    text += "dt = 1e-16\nn_cells = 90\n"
    assert _run_cli(tmp_path, text, f"output_dir={tmp_path / 'out'}") == 0
    # The end the run does not read is still checked once the config sets it.
    with pytest.raises(ConfigError, match=rf"^{unread} must be .* got {unread} = 1e\+06 "):
        parse_config(f"{text}{unread} = 1e6\n")


# Valid values of the keys the library types read; each draw puts one or two
# of them anywhere in the double range, or on the edge of a domain.
_VALID = {"B": 1.0, "R": 6.0, "kappa": 1.0, "kappa_outside": 0.0, "kappa_s": 0.0, "r_max": 18.0,
          "n_cells": 50, "dt": 0.1, "t_end": 2.0, "stationarity_tol": 1e-8,
          "snapshot_times": [1.0]}
_EDGES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-160, 1.0, 1e160, 1e300,
          -1e300, -1.0, np.inf, -np.inf, np.nan]
_DOUBLES = st.one_of(st.sampled_from(_EDGES), st.floats())
_DRAWS = {"n_cells": st.one_of(st.sampled_from([-1, 0, 1, 2, 2**31 - 1, 2**31, 2**62, 2**63]),
                               st.integers(-5, 10**6)),
          "snapshot_times": st.lists(_DOUBLES, max_size=3)}


@st.composite
def _inputs(draw):
    values = dict(_VALID)
    for key in draw(st.lists(st.sampled_from(sorted(_VALID)), min_size=1, max_size=2,
                             unique=True)):
        values[key] = draw(_DRAWS.get(key, _DOUBLES))
    return values


def _rejects(build, *args) -> bool:
    try:
        build(*args)
    except ValueError:
        return True
    return False


def _probe(experiment, **changed):
    return {**_VALID, **changed}, experiment


@settings(derandomize=True, max_examples=600, deadline=None)
@given(v=_inputs(), experiment=st.sampled_from(sorted(EXPERIMENTS)))
@example(*_probe("instability", r_max=1e300, n_cells=10000))
@example(*_probe("oracle", n_cells=2**31 - 1))  # the most cells a C int indexes
@example(*_probe("oracle", n_cells=2**31))
@example(*_probe("solve-new", R=1e-300))
@example(*_probe("convergence", kappa=1e-300))
@example(*_probe("spurious", dt=1e-300))
@example(*_probe("solve-old", snapshot_times=[1e300]))
def test_each_type_states_its_domain_and_the_config_admits_no_more(v, experiment):
    # Only built, never run.  A type either raises ValueError or leaves the
    # quantities the solvers derive from its inputs finite and in range, and
    # parse_config rejects what any type rejects.
    tiny = sys.float_info.min
    scenario = [v[key] for key in ("B", "R", "kappa", "kappa_outside", "kappa_s")]
    rejected = _rejects(ProblemSpec, *scenario)
    if not rejected:
        assert all(0 < x < np.inf for x in scenario[:3])
        assert all(0 <= x < np.inf for x in scenario[3:])
        assert tiny <= (2.0 * v["kappa"] * v["R"]) ** 2 < np.inf
    if _rejects(cell_width, v["r_max"], v["n_cells"]):
        rejected = True
    else:
        assert v["n_cells"] <= 2**31 - 1
        assert tiny <= cell_width(v["r_max"], v["n_cells"]) ** 2 < np.inf
    steps = v["dt"], v["t_end"], v["stationarity_tol"]
    if _rejects(SolverConfig, *steps):
        rejected = True
    else:
        assert 0 < v["dt"] < np.inf and 0 <= v["t_end"] / v["dt"] < 2.0**63 and steps[2] > 0
        # A run that takes no snapshots does not check them against a step.
        first = EXPERIMENTS[experiment].first_snapshot_step
        if _rejects(Schedule, SolverConfig(*steps), v["snapshot_times"], first or 0):
            rejected |= first is not None
        else:
            assert all(abs(t / v["dt"]) < 2.0**63 for t in v["snapshot_times"])

    text = "".join(f"{key} = {value!r}\n" for key, value in v.items() if key != "snapshot_times")
    text += f"snapshot_times = {', '.join(map(repr, v['snapshot_times']))}\n"
    if rejected:
        with pytest.raises(ConfigError):
            parse_config(f"experiment = {experiment}\n{text}")
