"""End-to-end command line checks on small, fast configurations."""

import dataclasses
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import qjump
from qjump import cli
from qjump.cli import cmd_verify, main

SMALL = """
[model]
type = damped_oscillator
N = 8
D22 = 0.5

[initial]
state = coherent(0.6)

[run]
dt = 1e-2
t_final = 0.2
snapshot_times = 0.1 0.2
n_trajectories = 200
seed = 3

[observables]
names = x number

[output]
directory = {out}
dump_density = {dump}
"""


# verify's rows in print order: explicit flip model (one coupling) ...
FLIP_ROWS = [
    "hamiltonian_hermitian",
    "coupling_1_hermitian",
    "coeff_hermitian",
    "coeff_positive_semidefinite",
    "probe_trace_free",
    "probe_hermiticity_preserving",
    "flow_norm_tangency",
    "flow_decay_rate",
    "rate_operator_eigenstate",
    "modified_rate_annihilates_state",
    "modified_rate_trace_sum_rule",
    "modified_rate_positive",
    "channel_rate_sum",
    "channel_reconstruction",
    "single_step_order_ratio",
]
# ... and the oscillator (couplings p and x, plus the closed-form rows)
OSCILLATOR_ROWS = (
    FLIP_ROWS[:2]
    + ["coupling_2_hermitian"]
    + FLIP_ROWS[2:]
    + [
        "closed_form_rate_operator",
        "closed_form_channel_reconstruction",
        "hasse_defect_rate_link",
        "reference_generator_agreement",
        "closed_form_flow_rhs",
        "frictional_hamiltonian_flow",
    ]
)


def check_names(out):
    return [line.split("] ", 1)[1].split(":", 1)[0] for line in out.splitlines() if line.startswith("[")]


def write_config(tmp_path, out="out", dump="false", name="model.cfg"):
    path = tmp_path / name
    path.write_text(SMALL.format(out=tmp_path / out, dump=dump))
    return str(path)


# one command in a fresh interpreter; prints its exit code, any scipy module
# loaded and whether numpy.random was loaded
IMPORT_PATH = """
import json
import sys

import qjump
import qjump.cli

code = qjump.cli.main([*sys.argv[2:], "--config", sys.argv[1]])
scipy_modules = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
print(json.dumps([code, scipy_modules, "numpy.random" in sys.modules]))
"""


def test_commands_never_import_scipy(tmp_path):
    # each command in its own process: verify draws probe states, which may
    # load numpy.random, while trajectory and ensemble draw none of theirs
    # through it
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(os.path.abspath(qjump.__file__))))
    config = write_config(tmp_path)
    random_loaded = {}
    for command in (["verify"], ["trajectory"], ["ensemble", "--threads", "2"]):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PATH, config, *command],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
            check=True,
        )
        code, scipy_modules, random_loaded[command[0]] = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0
        assert scipy_modules == []
    assert random_loaded["trajectory"] is False
    assert random_loaded["ensemble"] is False


def test_missing_subcommand_exits():
    with pytest.raises(SystemExit):
        main([])


def test_missing_config_file(tmp_path, capsys):
    assert main(["verify", "--config", str(tmp_path / "absent.cfg")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_invalid_config_reports_lines(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("[model]\ntype = damped_oscillator\nD11 = -1.0\n")
    assert main(["verify", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err
    assert "positive semidefinite" in err


def test_non_finite_model_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "nan.cfg"
    path.write_text(SMALL.format(out=tmp_path / "out", dump="false").replace("D22 = 0.5", "D22 = nan"))
    for command in ("verify", "ensemble"):
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 2: invalid damped_oscillator model: diffusion matrix is not positive semidefinite" in err
    assert not (tmp_path / "out").exists()


FLIP_CONFIG = (
    "[model]\ntype = explicit\ndim = 2\n"
    "hamiltonian = {h00},0 0,0 0,0 0,0\n"
    "couplings = 1\ncoupling_1 = 0,0 1,0 1,0 0,0\ncoeff = 0.5,0\n"
    "[initial]\nstate = {state}\n"
    "[run]\ndt = 1e-2\nt_final = 0.1\nn_trajectories = 10\nseed = 1\n"
)


@pytest.mark.parametrize(
    "text, error",
    [
        (
            SMALL.replace("coherent(0.6)", "coherent(nan)"),
            "line 8: coherent amplitude (nan+0j) is not finite",
        ),
        (
            FLIP_CONFIG.format(h00=0, state="explicit\namplitudes = nan,0 1,0"),
            "line 10: 'amplitudes': every amplitude must be finite",
        ),
    ],
    ids=["coherent", "explicit"],
)
def test_non_finite_initial_state_is_a_config_error(tmp_path, capsys, text, error):
    path = tmp_path / "state.cfg"
    path.write_text(text.format(out=tmp_path / "out", dump="false"))
    for command in ("verify", "trajectory"):
        assert main([command, "--config", str(path)]) == 2
        assert error in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text, error",
    [
        (
            SMALL.replace("D22 = 0.5", "D22 = 0.5\nm = inf"),
            "line 2: invalid damped_oscillator model: [FAIL] coupling_1_hermitian: value nan (threshold 1.0e-10)",
        ),
        (FLIP_CONFIG.format(h00="inf", state="fock(0)"), "line 4: generator check failed: hamiltonian_hermitian (value nan)"),
    ],
    ids=["mass", "hamiltonian"],
)
def test_non_finite_model_warns_nothing_before_its_error(tmp_path, capsys, text, error):
    path = tmp_path / "inf.cfg"
    path.write_text(text.format(out=tmp_path / "out", dump="false"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "--config", str(path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == f"error: invalid config {str(path)!r}:"
    assert all(line.startswith("  line ") for line in lines[1:])
    assert f"  {error}" in lines


def test_verify_passes_and_prints_report(tmp_path, capsys):
    assert main(["verify", "--config", write_config(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "[PASS] single_step_order_ratio" in out
    assert "[PASS] flow_decay_rate" in out
    assert "[PASS] closed_form_rate_operator" in out
    assert "[FAIL]" not in out
    lines = out.splitlines()
    assert lines[0].startswith("initial state occupancy tail: ")
    assert check_names(out) == OSCILLATOR_ROWS
    assert lines[-1] == "22/22 checks passed"


def test_verify_explicit_model(tmp_path, capsys):
    path = tmp_path / "flip.cfg"
    path.write_text(FLIP_CONFIG.format(h00=0, state="fock(0)"))
    assert main(["verify", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out
    # the oscillator-only closed-form section has nothing to check here
    assert check_names(out) == FLIP_ROWS
    assert out.splitlines()[-1] == "15/15 checks passed"


# friction (ImD12) needs D11 D22 >= |D12|^2; fock(1) at N=8 is truncation-safe
FRICTION = SMALL.replace("D22 = 0.5", "D11 = 0.1\nD22 = 0.5\nImD12 = 0.1")


def verify_report(tmp_path, capsys, text):
    path = tmp_path / "model.cfg"
    path.write_text(text.format(out=tmp_path / "out", dump="false"))
    code = main(["verify", "--config", str(path)])
    return code, capsys.readouterr().out


def failed_rows(out):
    return check_names("\n".join(line for line in out.splitlines() if line.startswith("[FAIL]")))


def test_verify_catches_a_hamiltonian_without_friction(tmp_path, capsys, monkeypatch):
    frictional_hamiltonian = cli.frictional_hamiltonian

    def frictionless(params, psi):
        return frictional_hamiltonian(dataclasses.replace(params, im_d12=0.0), psi)

    assert verify_report(tmp_path, capsys, FRICTION.replace("coherent(0.6)", "fock(1)"))[0] == 0
    monkeypatch.setattr(cli, "frictional_hamiltonian", frictionless)
    code, out = verify_report(tmp_path, capsys, FRICTION.replace("coherent(0.6)", "fock(1)"))
    assert code == 1
    assert failed_rows(out) == ["frictional_hamiltonian_flow"]


def test_verify_catches_a_closed_form_rhs_without_diffusion(tmp_path, capsys, monkeypatch):
    frictional_rhs_closed_form = cli.frictional_rhs_closed_form

    def diffusionless(params, psi):
        return frictional_rhs_closed_form(dataclasses.replace(params, d22=0.0), psi)

    monkeypatch.setattr(cli, "frictional_rhs_closed_form", diffusionless)
    code, out = verify_report(tmp_path, capsys, SMALL)
    assert code == 1
    # H_fr is judged against the closed form, so its row fails with it
    assert failed_rows(out) == ["closed_form_flow_rhs", "frictional_hamiltonian_flow"]


def test_hamiltonian_row_skips_an_unsafe_initial_state(tmp_path, capsys):
    # coherent(0.6) at N=8 leaves 2.2e-6 in the top two levels; with friction,
    # H_fr misses the flow there by 2.6e-4, and the row judges the probes only
    code, out = verify_report(tmp_path, capsys, FRICTION)
    assert "initial state occupancy tail: 2.218e-06" in out
    assert "[PASS] frictional_hamiltonian_flow" in out
    assert "[PASS] closed_form_flow_rhs" in out


def test_friction_model_off_the_safe_set_passes_verify(tmp_path, capsys):
    # the rate link to Hasse's defect also needs [x, p] = i hbar, so it skips the initial state too
    code, out = verify_report(tmp_path, capsys, FRICTION)
    assert "[PASS] hasse_defect_rate_link" in out
    assert out.splitlines()[-1] == "22/22 checks passed"
    assert code == 0


def test_verify_catches_a_wrong_hasse_defect(tmp_path, capsys, monkeypatch):
    hasse_defect = cli.hasse_defect
    monkeypatch.setattr(cli, "hasse_defect", lambda psi, params: 2.0 * hasse_defect(psi, params))
    code, out = verify_report(tmp_path, capsys, FRICTION)
    assert code == 1
    assert failed_rows(out) == ["hasse_defect_rate_link"]


def test_trajectory_outputs(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["trajectory", "--config", cfg]) == 0
    obs = tmp_path / "out" / "observables_00000.csv"
    jumps = tmp_path / "out" / "jumps_00000.csv"
    lines = obs.read_text().splitlines()
    assert lines[0] == "time,x,number"
    assert len(lines) == 22  # header + 21 grid points
    assert jumps.read_text().splitlines()[0] == "time,event_type,channel_rate,target_index"
    first = obs.read_bytes()
    assert main(["trajectory", "--config", cfg]) == 0
    assert obs.read_bytes() == first  # rerun is byte-identical


def jump_rows(path):
    """(time, event_type, target_index) of every row of an event log."""
    return [tuple(line.split(",")[i] for i in (0, 1, 3)) for line in path.read_text().splitlines()]


# at seed 3, index 2 first jumps on the step to t=3.34 and index 0 on the step to t=6.11
JUMPS_BY = "t_final = 6.11"


def test_trajectory_multiple_indices(tmp_path):
    # long enough that both indices jump, so the two streams produce different jump patterns
    cfg_text = (
        SMALL.format(out=tmp_path / "out", dump="false")
        .replace("seed = 3", "seed = 3\ntrajectory_indices = 0 2")
        .replace("t_final = 0.2", JUMPS_BY)
        .replace("snapshot_times = 0.1 0.2", "snapshot_times = 0.5 1.0")
    )
    path = tmp_path / "multi.cfg"
    path.write_text(cfg_text)
    assert main(["trajectory", "--config", str(path)]) == 0
    names = sorted(os.listdir(tmp_path / "out"))
    assert names == [
        "jumps_00000.csv",
        "jumps_00002.csv",
        "observables_00000.csv",
        "observables_00002.csv",
    ]
    for name in ("jumps_00000.csv", "jumps_00002.csv"):
        assert any(row[1] == "jump" for row in jump_rows(tmp_path / "out" / name))
    a = (tmp_path / "out" / "jumps_00000.csv").read_text()
    b = (tmp_path / "out" / "jumps_00002.csv").read_text()
    assert a != b  # different trajectory index, different stream


def test_trajectory_index_jumps_do_not_depend_on_its_neighbours(tmp_path):
    # indices 0 and 2 run as one block, then each alone
    runs = {}
    for indices in ("0 2", "0", "2"):
        out = tmp_path / indices.replace(" ", "_")
        path = tmp_path / "model.cfg"
        text = SMALL.replace("seed = 3", f"seed = 3\ntrajectory_indices = {indices}").replace("t_final = 0.2", JUMPS_BY)
        path.write_text(text.replace("snapshot_times = 0.1 0.2", "snapshot_times = 1.0").format(out=out, dump="false"))
        assert main(["trajectory", "--config", str(path)]) == 0
        runs[indices] = out
    for index in ("0", "2"):
        alone = jump_rows(runs[index] / f"jumps_{int(index):05d}.csv")
        assert any(row[1] == "jump" for row in alone)
        assert jump_rows(runs["0 2"] / f"jumps_{int(index):05d}.csv") == alone


def test_trajectory_repeated_index_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "index.cfg"
    text = SMALL.replace("seed = 3", "seed = 3\ntrajectory_indices = 0 0")
    path.write_text(text.format(out=tmp_path / "out", dump="false"))
    assert main(["trajectory", "--config", str(path)]) == 2
    assert "line 16: trajectory index 0 is listed twice" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_trajectory_empty_index_list_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "index.cfg"
    text = SMALL.replace("seed = 3", "seed = 3\ntrajectory_indices =")
    path.write_text(text.format(out=tmp_path / "out", dump="false"))
    assert main(["trajectory", "--config", str(path)]) == 2
    assert "line 16: 'trajectory_indices': expected a list of integers: empty value" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_ensemble_outputs_and_thread_independence(tmp_path):
    cfg = write_config(tmp_path, dump="true")
    assert main(["ensemble", "--config", cfg, "--threads", "1"]) == 0
    conv = tmp_path / "out" / "convergence.csv"
    lines = conv.read_text().splitlines()
    assert lines[0] == "time,trace_distance,stat_error,mean_x,stderr_x,mean_number,stderr_number"
    assert len(lines) == 3
    assert (tmp_path / "out" / "rho_mc_000.txt").exists()
    assert (tmp_path / "out" / "rho_oracle_001.txt").exists()
    dump = (tmp_path / "out" / "rho_mc_000.txt").read_text().splitlines()
    assert dump[0] == "dim 8"
    assert len(dump) == 9
    assert len(dump[1].split()) == 8  # eight re,im pairs per row
    baseline = conv.read_bytes()
    mc_baseline = (tmp_path / "out" / "rho_mc_000.txt").read_bytes()
    assert main(["ensemble", "--config", cfg, "--threads", "8"]) == 0
    assert conv.read_bytes() == baseline
    assert (tmp_path / "out" / "rho_mc_000.txt").read_bytes() == mc_baseline


def test_out_and_seed_overrides(tmp_path):
    cfg = write_config(tmp_path)
    alt = tmp_path / "alt"
    assert main(["ensemble", "--config", cfg, "--out", str(alt)]) == 0
    assert (alt / "convergence.csv").exists()
    base = (alt / "convergence.csv").read_bytes()
    assert main(["ensemble", "--config", cfg, "--out", str(alt), "--seed", "99"]) == 0
    assert (alt / "convergence.csv").read_bytes() != base


def test_trajectory_index_beyond_uint64_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "index.cfg"
    text = SMALL.replace("seed = 3", "seed = 3\ntrajectory_indices = 18446744073709551616")
    path.write_text(text.format(out=tmp_path / "out", dump="false"))
    assert main(["trajectory", "--config", str(path)]) == 2
    assert "line 16: trajectory index must be in [0, 2^64), got 18446744073709551616" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_negative_thread_count_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["ensemble", "--config", write_config(tmp_path), "--threads", "-1"])
    assert info.value.code == 2
    assert "argument --threads: expected a nonnegative integer, got '-1'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_density_dump_round_trip(tmp_path):
    cfg = write_config(tmp_path, dump="true")
    assert main(["ensemble", "--config", cfg]) == 0
    rows = (tmp_path / "out" / "rho_oracle_000.txt").read_text().splitlines()
    rho = np.array(
        [[complex(*map(float, pair.split(","))) for pair in row.split()] for row in rows[1:]]
    )
    assert rho.shape == (8, 8)
    assert abs(np.trace(rho).real - 1.0) < 1e-10
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
