import ctypes
import dataclasses
import json
import math
import os

import numpy as np
import pytest

from geomoment import blas, gradcheck, runner, trainer
from geomoment.cli import main
from geomoment.datasets import BlobsConfig, DenoiseConfig
from geomoment.errors import ConfigError
from geomoment.losses import LossEval
from geomoment.matrixio import read_matrix, write_matrix
from geomoment.runner import (
    build_run_config,
    config_block,
    load_run_config,
    parse_config_text,
    run_experiment,
    sweep_dim,
)

BLOBS_CFG = """
# desk-scale covariate-shift run
task = blobs
seed = 0
dist_kind = airm
beta = 0.1
eta = 0.02
epochs = 4
batch_source = 64
batch_target = 64
learn_rate = 1e-3
encoder = 16:relu,2:identity
blobs.num_classes = 3
blobs.samples_per_class = 80
blobs.input_dim = 4
blobs.center_radius = 2.2
blobs.cov_scale = 1.4
blobs.rotation = 1.0471975511965976
blobs.translation = 0,0,-1.8,1.2
"""

DENOISE_CFG = """
task = denoise
seed = 1
dist_kind = hilbert
beta = 0.1
eta = 1e-8
epochs = 3
batch_source = 64
batch_target = 64
learn_rate = 2e-3
encoder = 12:tanh,2:identity
decoder = 12:tanh
denoise.length = 32
denoise.samples = 120
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_roundtrip_and_types():
    parsed = parse_config_text(BLOBS_CFG)
    assert parsed["task"] == "blobs"
    assert parsed["encoder"] == ((16, "relu"), (2, "identity"))
    assert parsed["blobs.translation"] == (0.0, 0.0, -1.8, 1.2)
    cfg = build_run_config(parsed, out_dir="unused")
    assert cfg.model_spec.embed_dim == 2
    assert cfg.blobs.num_classes == 3


def test_unknown_key_reports_line():
    bad = BLOBS_CFG + "blobs.radius_typo = 3\n"
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text(bad, path="bad.cfg")


def test_wrong_task_key_rejected():
    bad = BLOBS_CFG + "denoise.length = 64\n"
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text(bad)


def test_missing_required_key():
    with pytest.raises(ConfigError, match="missing required key"):
        parse_config_text("task = blobs\nseed = 0\n")


def test_bad_value_diagnostics():
    bad = BLOBS_CFG.replace("beta = 0.1", "beta = fast")
    with pytest.raises(ConfigError, match="bad value for 'beta'"):
        parse_config_text(bad)


def _line_of(text, start):
    """The 1-based number of text's first line that starts with start."""
    return next(i for i, line in enumerate(text.splitlines(), 1) if line.startswith(start))


ADDED = len(BLOBS_CFG.splitlines()) + 1  # the number of a line appended to BLOBS_CFG
ENCODER = _line_of(BLOBS_CFG, "encoder =")


@pytest.mark.parametrize("text, prefix, message", [
    (BLOBS_CFG + "epochs 4\n", f"bad.cfg:{ADDED}: ", "expected 'key = value'"),
    (BLOBS_CFG + "beta = 0.2\n", f"bad.cfg:{ADDED}: ", "duplicate key 'beta'"),
    (BLOBS_CFG + "embed_dim = 2\n", f"bad.cfg:{ADDED}: ", "unknown key 'embed_dim'"),
    (BLOBS_CFG.replace("task = blobs", "task = images"), "bad.cfg: ",
     "key 'task' must be blobs or denoise, got 'images'"),
    (BLOBS_CFG + "sweep.kinds = airm,wasserstein\n", f"bad.cfg:{ADDED}: ",
     "unknown kind 'wasserstein'"),
    (BLOBS_CFG + "sweep.kinds = airm,hilbert,airm\n", f"bad.cfg:{ADDED}: ",
     "a kind is listed twice"),
    (BLOBS_CFG.replace("16:relu", "16:gelu"), f"bad.cfg:{ENCODER}: ", "unknown activation 'gelu'"),
    (BLOBS_CFG.replace("encoder = 16:relu,2:identity", "encoder = ,"), f"bad.cfg:{ENCODER}: ",
     "empty layer list"),
    (BLOBS_CFG.replace("16:relu", "1x6:relu"), f"bad.cfg:{ENCODER}: ",
     "bad value for 'encoder'"),
])
def test_parser_diagnostics_name_file_and_line(text, prefix, message):
    with pytest.raises(ConfigError) as info:
        parse_config_text(text, path="bad.cfg")
    assert str(info.value).startswith(prefix)
    assert message in str(info.value)


def test_seed_and_sweep_seeds_parse_integers_alike():
    text = BLOBS_CFG.replace("seed = 0", "seed = 0x10") + "sweep.seeds = 0x10,17\n"
    parsed = parse_config_text(text)
    assert parsed["seed"] == 16
    assert parsed["sweep.seeds"] == (16, 17)


def test_layer_widths_parse_integers_like_seed():
    encoder = BLOBS_CFG.replace("encoder = 16:relu", "encoder = 0x10:relu")
    assert parse_config_text(encoder)["encoder"] == ((16, "relu"), (2, "identity"))
    decoder = DENOISE_CFG.replace("decoder = 12:tanh", "decoder = 0x18:tanh")
    assert parse_config_text(decoder)["decoder"] == ((24, "tanh"),)


def strict_json(path):
    """Load a JSON file, failing on the NaN and Infinity constants strict JSON lacks."""

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


def test_eta_inf_parses(tmp_path):
    text = BLOBS_CFG.replace("eta = 0.02", "eta = inf")
    cfg = build_run_config(parse_config_text(text), out_dir=str(tmp_path / "run"))
    assert math.isinf(cfg.train_cfg.eta)
    run_experiment(cfg)
    summary = strict_json(tmp_path / "run" / "summary.json")
    assert summary["eta"] == summary["config"]["eta"] == "inf"


def test_config_block_carries_every_key_a_config_file_sets():
    configs = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
    for name in ("blobs_airm.cfg", "denoise_hilbert.cfg"):
        with open(os.path.join(configs, name)) as fh:
            parsed = parse_config_text(fh.read(), name)
        block = config_block(build_run_config(parsed))
        for key, value in parsed.items():
            assert json.loads(json.dumps(block[key])) == json.loads(json.dumps(value)), key


def test_dataset_fields_default_to_the_dataset_configs():
    required = (
        "seed = 5\ndist_kind = airm\nbeta = 0.1\neta = 0.02\nepochs = 1\n"
        "batch_source = 16\nbatch_target = 16\nlearn_rate = 1e-3\n"
        "encoder = 2:identity\n"
    )
    blobs = build_run_config(parse_config_text("task = blobs\n" + required), out_dir="unused")
    assert blobs.blobs == BlobsConfig(seed=5)
    denoise = build_run_config(parse_config_text("task = denoise\n" + required), out_dir="unused")
    assert denoise.denoise == DenoiseConfig(seed=5)


def test_dataset_fields_set_by_the_file():
    cfg = build_run_config(parse_config_text(BLOBS_CFG), out_dir="unused")
    assert cfg.blobs == BlobsConfig(
        num_classes=3, samples_per_class=80, input_dim=4, center_radius=2.2, cov_scale=1.4,
        target_rotation=1.0471975511965976, target_translation=(0, 0, -1.8, 1.2), seed=0,
    )
    cfg = build_run_config(parse_config_text(DENOISE_CFG), out_dir="unused")
    assert cfg.denoise == DenoiseConfig(length=32, samples=120, seed=1)


def test_run_experiment_outputs(tmp_path):
    cfg = load_run_config(write_cfg(tmp_path, BLOBS_CFG), out_dir=str(tmp_path / "run"))
    row, report = run_experiment(cfg)
    assert os.path.exists(tmp_path / "run" / "report.csv")
    assert os.path.exists(tmp_path / "run" / "summary.json")
    metrics = (tmp_path / "run" / "metrics.csv").read_text().strip().split("\n")
    assert len(metrics) == 2  # header + one row
    summary = strict_json(tmp_path / "run" / "summary.json")
    assert summary["task"] == "blobs"
    assert "wall_time_s" in summary
    assert row["epochs"] == 4


def test_summary_counts_skipped_steps_by_reason(tmp_path, monkeypatch):
    def closed(zs, zt, *args, **kwargs):
        return LossEval(math.nan, np.zeros_like(zs), np.zeros_like(zt), "pencil_unresolved")

    monkeypatch.setattr(trainer, "dist_loss", closed)
    text = BLOBS_CFG.replace("eta = 0.02", "eta = 1e-8")  # a gate that opens at once
    cfg = load_run_config(write_cfg(tmp_path, text), out_dir=str(tmp_path / "run"))
    row, _ = run_experiment(cfg)
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert row["skipped_steps"] > 0
    assert summary["skipped_steps_by_reason"] == {
        "covariance_not_spd": 0, "pencil_unresolved": row["skipped_steps"],
    }


def test_optimizer_key_is_unknown():
    with pytest.raises(ConfigError, match="unknown key 'optimizer'"):
        parse_config_text(BLOBS_CFG + "optimizer = adam\n")


def test_run_experiment_deterministic_csv(tmp_path):
    c1 = load_run_config(write_cfg(tmp_path, BLOBS_CFG), out_dir=str(tmp_path / "a"))
    c2 = load_run_config(write_cfg(tmp_path, BLOBS_CFG), out_dir=str(tmp_path / "b"))
    run_experiment(c1)
    run_experiment(c2)
    assert (tmp_path / "a" / "report.csv").read_text() == (
        tmp_path / "b" / "report.csv"
    ).read_text()
    assert (tmp_path / "a" / "metrics.csv").read_text() == (
        tmp_path / "b" / "metrics.csv"
    ).read_text()


def test_denoise_run(tmp_path):
    cfg = load_run_config(write_cfg(tmp_path, DENOISE_CFG), out_dir=str(tmp_path / "d"))
    row, report = run_experiment(cfg)
    assert 0.0 < row["target_metric"] < 1.0
    assert report.epochs == 3


def test_metrics_accumulate_across_runs(tmp_path):
    shared = str(tmp_path / "metrics.csv")
    for seed in (0, 1, 2):
        cfg = load_run_config(
            write_cfg(tmp_path, BLOBS_CFG), seed=seed, out_dir=str(tmp_path / f"r{seed}")
        )
        run_experiment(cfg, metrics_path=shared)
    lines = open(shared).read().strip().split("\n")
    assert len(lines) == 4  # header + 3 completed runs


def test_sweep_dim_cardinality_and_flags(tmp_path):
    text = BLOBS_CFG + "sweep.kinds = airm,mean_euclid\nsweep.seeds = 0,1\n"
    cfg = load_run_config(write_cfg(tmp_path, text), out_dir=str(tmp_path / "sweep"))
    rows, best = sweep_dim(cfg, [2, 3, 32])
    assert len(rows) == 3 * 2 * 2
    flagged = [r for r in rows if not r["regime_ok"]]
    assert {r["dim"] for r in flagged} == {32}  # 64 < 10 * 32
    assert all(math.isnan(r["target_metric"]) for r in flagged)
    assert os.path.exists(tmp_path / "sweep" / "sweep.csv")
    assert set(best) <= {"airm", "mean_euclid"}
    for kind, info in best.items():
        assert info["best_dim"] in (2, 3)
    # sweep files and every per-run report share the config's out_dir as root
    root = tmp_path / "sweep"
    for r in rows:
        if r["regime_ok"]:
            run_dir = root / f"d{r['dim']}_{r['kind']}_s{r['seed']}"
            assert (run_dir / "report.csv").exists()
            # each run's config block holds that run's own settings
            config = strict_json(run_dir / "summary.json")["config"]
            assert config["dist_kind"] == r["kind"]
            assert config["seed"] == r["seed"]
            assert config["encoder"][-1][0] == r["dim"]
            assert config["out_dir"] == str(run_dir)
    assert sorted(os.listdir(tmp_path)) == ["run.cfg", "sweep"]


def test_sweep_dim_draws_each_seeds_batch_rows_once(tmp_path, monkeypatch):
    calls = []  # the seeds of every batch_rows call
    real_batch_rows = trainer.batch_rows

    def batch_rows(seeds, *sizes):
        calls.append(tuple(seeds))
        return real_batch_rows(seeds, *sizes)

    monkeypatch.setattr(trainer, "batch_rows", batch_rows)
    monkeypatch.setattr(runner, "batch_rows", batch_rows)
    text = BLOBS_CFG + "sweep.kinds = airm,mean_euclid,hilbert\nsweep.seeds = 0,1\n"
    for dims in ([2], [2, 3], [32, 2, 3]):  # dim 32 is flagged, not run
        calls.clear()
        cfg = load_run_config(write_cfg(tmp_path, text),
                              out_dir=str(tmp_path / "_".join(map(str, dims))))
        sweep_dim(cfg, dims)
        assert calls == [(0, 1)], dims



@pytest.mark.parametrize("dims,message", [
    ("2,2", "a dim is listed twice in [2, 2]"),
    ("2,0", "dims must be positive, got [2, 0]"),
    ("3,-1", "dims must be positive, got [3, -1]"),
])
def test_cli_sweep_checks_every_dim_before_training_any(tmp_path, capsys, dims, message):
    out = tmp_path / "sw"
    code = main(["sweep-dim", "--config", write_cfg(tmp_path, BLOBS_CFG), "--dims", dims,
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()  # no run trained, no file written

BLOBS_AIRM_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "blobs_airm.cfg")


def _tree(root):
    """{relative path: contents} under root; a summary.json without its wall_time_s or out_dir."""
    files = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            if name == "summary.json":
                summary = strict_json(path)
                del summary["wall_time_s"], summary["config"]["out_dir"]
                files[os.path.relpath(path, root)] = summary
            else:
                files[os.path.relpath(path, root)] = open(path, "rb").read()
    return files


@pytest.mark.parametrize("beta", [0.1, 0.0])
def test_sweep_dim_over_all_kinds_writes_each_run_as_one_kind_sweeps_do(
        tmp_path, monkeypatch, beta):
    # At dim 4 the gates of seeds 0 and 159990 never open in these 20 epochs.
    cfg = load_run_config(BLOBS_AIRM_CFG)
    cfg = dataclasses.replace(cfg, sweep_seeds=(0, 159990, 2), train_cfg=dataclasses.replace(
        cfg.train_cfg, epochs=20, beta=beta))
    stacks = []  # the dist_kind of every config of each train call
    real_train = runner.train

    def train(configs, *args, **kwargs):
        stacks.append([c.dist_kind for c in configs])
        return real_train(configs, *args, **kwargs)

    monkeypatch.setattr(runner, "train", train)
    rows, _ = sweep_dim(dataclasses.replace(cfg, out_dir=str(tmp_path / "all")), [2, 4])
    kinds = cfg.sweep_kinds
    assert stacks == [[k for k in kinds for _ in range(3)]] * 2  # one stack per dim
    gates = {r["dim"]: [] for r in rows}
    for r in rows:
        gates[r["dim"]].append(r["gate_open_epoch"])
    if beta:
        assert gates[4].count(-1) == 2 * len(kinds) and min(gates[2]) > 1

    for kind in kinds:  # each kind's one-kind sweep, trained from epoch 0
        sweep_dim(dataclasses.replace(cfg, sweep_kinds=(kind,),
                                      out_dir=str(tmp_path / "one" / kind)), [2, 4])

    def run_files(root):  # each run's report.csv and summary.json, but its sweep.kinds
        files = {path: v for path, v in _tree(root).items() if os.sep in path}
        for path, v in files.items():
            if path.endswith("summary.json"):
                del v["config"]["sweep.kinds"]
        return files

    runs, alone = run_files(tmp_path / "all"), {}
    for kind in kinds:
        alone.update(run_files(tmp_path / "one" / kind))
    assert len(runs) == 2 * len(kinds) * 3 * 2 and runs == alone


# ----------------------------------------------------------------------- CLI


def test_cli_embed_and_dist(tmp_path, capsys):
    mpath = tmp_path / "moments.txt"
    mpath.write_text("dim=1\n1.0\n1.0\n")  # mean [1], covariance [[1]]
    out = tmp_path / "P.txt"
    assert main(["embed", str(mpath), "--out", str(out)]) == 0
    P = read_matrix(out)
    assert np.array_equal(P, [[2.0, 1.0], [1.0, 1.0]])

    p1 = tmp_path / "p1.txt"
    p2 = tmp_path / "p2.txt"
    write_matrix(p1, np.eye(2))
    write_matrix(p2, np.diag([4.0, 1.0]))
    assert main(["dist", str(p1), str(p2), "--kind", "hilbert"]) == 0
    printed = capsys.readouterr().out.strip()
    assert float(printed) == pytest.approx(np.log(4.0), abs=1e-15)
    assert len(printed) >= 17  # 17 significant digits


def test_cli_dist_rejects_non_spd_files(tmp_path, capsys):
    eye = tmp_path / "eye.txt"
    write_matrix(eye, np.eye(2))
    bad = {
        "asym.txt": np.array([[2.0, 0.3], [0.9, 1.0]]),
        "indefinite.txt": np.array([[1.0, 2.0], [2.0, 1.0]]),
    }
    for name, M in bad.items():
        path = tmp_path / name
        write_matrix(path, M)
        for args in ([str(path), str(eye)], [str(eye), str(path)]):
            assert main(["dist", *args, "--kind", "airm"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")


def test_cli_embed_rejects_asymmetric_covariance_file(tmp_path, capsys):
    path = tmp_path / "asym_moments.txt"
    path.write_text("dim=2\n0 0\n1 0.5\n0 1\n")
    out = tmp_path / "P.txt"
    for extra in ([], ["--out", str(out)]):
        assert main(["embed", str(path), *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: asymmetry ")
    assert not out.exists()


def test_cli_embed_and_dist_reject_empty_files(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    header_only = tmp_path / "header.txt"
    header_only.write_text("dim=2\n")
    for path in (empty, header_only):
        for args in (["embed", str(path)], ["dist", str(path), str(path), "--kind", "airm"]):
            assert main(args) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {path}: ")


def test_cli_oracle_fr(capsys):
    assert main(["oracle-fr", "0", "1", "0", str(np.e)]) == 0
    val = float(capsys.readouterr().out.strip())
    assert val == pytest.approx(np.sqrt(2.0), abs=1e-12)



def test_cli_oracle_fr_extreme_gap_and_non_finite_mean(capsys):
    assert main(["oracle-fr", "1e200", "1", "0", "1"]) == 0
    assert math.isfinite(float(capsys.readouterr().out.strip()))
    assert main(["oracle-fr", "nan", "1", "0", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: means must be finite")

def test_cli_bound_check(tmp_path):
    out = tmp_path / "bound.csv"
    assert main(["bound-check", "--seed", "3", "--pairs", "200", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "k,seed,tv,hilbert,rhs,slack,holds"
    assert len(lines) == 201
    assert all(ln.split(",")[6] == "1" for ln in lines[1:])


def test_cli_gradcheck(capsys, monkeypatch):
    assert main(["gradcheck", "--seed", "1", "--kind", "coral_frob"]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out

    dist_loss = gradcheck.dist_loss

    def wrong_grad(zs, zt, kind):  # target gradients 1% too large
        le = dist_loss(zs, zt, kind)
        return dataclasses.replace(le, grad_target=1.01 * le.grad_target)

    monkeypatch.setattr(gradcheck, "dist_loss", wrong_grad)
    assert main(["gradcheck", "--seed", "1", "--kind", "coral_frob"]) == 1
    assert f"gradient audit above {gradcheck.FD_BOUND:g}" in capsys.readouterr().err


def test_cli_train_and_config_error(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, BLOBS_CFG)
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "cli_run")]) == 0
    assert os.path.exists(tmp_path / "cli_run" / "report.csv")

    bad = write_cfg(tmp_path, BLOBS_CFG + "typo_key = 1\n", name="bad.cfg")
    assert main(["train", "--config", bad]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_rejects_zero_decoder_width_and_nan_beta(tmp_path, capsys):
    for name, text in (
        ("decoder.cfg", DENOISE_CFG.replace("decoder = 12:tanh", "decoder = 0:tanh")),
        ("beta.cfg", BLOBS_CFG.replace("beta = 0.1", "beta = nan")),
    ):
        out = tmp_path / f"{name}.out"
        assert main(["train", "--config", write_cfg(tmp_path, text, name), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()


def test_cli_rejects_non_finite_dataset_settings(tmp_path, capsys):
    for name, text in (
        ("noise_std.cfg", DENOISE_CFG + "denoise.noise_std = nan\n"),
        ("noise_mean.cfg", DENOISE_CFG + "denoise.noise_mean = inf\n"),
        ("radius.cfg", BLOBS_CFG.replace("center_radius = 2.2", "center_radius = nan")),
        ("scale.cfg", BLOBS_CFG.replace("cov_scale = 1.4", "cov_scale = inf")),
        ("rotation.cfg", BLOBS_CFG.replace("rotation = 1.0471975511965976", "rotation = nan")),
        ("translation.cfg", BLOBS_CFG.replace("0,0,-1.8,1.2", "0,0,-inf,1.2")),
    ):
        out = tmp_path / f"{name}.out"
        assert main(["train", "--config", write_cfg(tmp_path, text, name), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()


def test_cli_non_finite_loss_names_its_run_and_stops_the_cell(tmp_path, capsys):
    # a huge step sends every run's task loss to NaN in its first epoch
    text = BLOBS_CFG.replace("learn_rate = 1e-3", "learn_rate = 1e300") + "sweep.seeds = 5,6\n"
    out = tmp_path / "sw"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["sweep-dim", "--config", write_cfg(tmp_path, text), "--dims", "2",
                     "--out", str(out)])
    assert code == 3
    assert "non-finite loss in the run with seed=5 dist_kind=airm" in capsys.readouterr().err
    assert os.listdir(out) == []  # neither seed of the cell wrote a file


def test_cli_sweep(tmp_path):
    cfg_path = write_cfg(tmp_path, BLOBS_CFG)
    code = main(
        ["sweep-dim", "--config", cfg_path, "--dims", "2,3", "--out", str(tmp_path / "sw")]
    )
    assert code == 0
    lines = (tmp_path / "sw" / "sweep.csv").read_text().strip().split("\n")
    assert len(lines) == 3


def _set_numpy_blas_threads(n):
    set_threads = blas._openblas(np, "scipy_openblas_set_num_threads64_", (ctypes.c_int,), None)
    set_threads(n)


def test_cli_train_pins_blas_unless_set(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, BLOBS_CFG)
    before = blas.blas_threads()
    if before is None:  # no readable OpenBLAS pool: the summary says so
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
        assert json.loads((tmp_path / "r" / "summary.json").read_text())["blas_threads"] is None
        return
    try:
        for env, want in (("2", 2), (None, 1)):
            _set_numpy_blas_threads(2)
            if env is None:
                monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
            else:
                monkeypatch.setenv("OPENBLAS_NUM_THREADS", env)
            out = tmp_path / f"r{want}"
            assert main(["train", "--config", cfg, "--out", str(out)]) == 0
            summary = json.loads((out / "summary.json").read_text())
            assert summary["blas_threads"] == want
            assert summary["zeroed_grad_steps"] == {"NearZeroDistance": 0, "DegenerateSpectrum": 0}
    finally:
        _set_numpy_blas_threads(before)
