import json
import math

import numpy as np
import pytest

from qprogopt import cli, optim, processors, sdp
from qprogopt.channels import DensityMatrix, amplitude_damping, choi_of_channel
from qprogopt.cli import load_program, main


def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_optimize_teleportation_pauli_sdp_trace(tmp_path, capsys):
    cfg = {
        "processor": {"kind": "teleportation", "d": 2},
        "channel": {"kind": "pauli", "probs": [0.7, 0.1, 0.1, 0.1]},
        "method": "sdp_trace",
    }
    out = tmp_path / "row.csv"
    code = main(["optimize", "--config", _write(tmp_path, cfg), "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "param,method,N,cost_kind,cost,iterations"
    cost = float(lines[1].split(",")[4])
    assert cost <= 1e-6


def test_optimize_pbt_reduced_depolarizing_threshold(tmp_path):
    cfg = {
        "processor": {"kind": "pbt_reduced", "N": 3, "d": 2},
        "channel": {"kind": "depolarizing", "p": 0.6},
        "method": "sdp_diamond",
    }
    out = tmp_path / "row.csv"
    code = main(["optimize", "--config", _write(tmp_path, cfg), "--out", str(out)])
    assert code == 0
    cost = float(out.read_text().strip().splitlines()[1].split(",")[4])
    assert cost <= 1e-6


def test_optimize_reduced_subgradient_with_large_steps(tmp_path):
    # steps of size 100/sqrt(k) leave the Choi set far behind; projecting them
    # back used to fail with exit 2 (no convergence of the projection)
    cfg = {
        "processor": {"kind": "pbt_reduced", "N": 4, "d": 2},
        "channel": {"kind": "amplitude_damping", "p": 0.5},
        "method": "subgradient",
        "cost": "C1",
        "optimizer": {"max_iters": 20, "learning_rate": {"a": 100.0}},
    }
    out = tmp_path / "row.csv"
    assert main(["optimize", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    row = out.read_text().strip().splitlines()[1].split(",")
    assert row[1:4] == ["subgradient", "4", "C1"] and row[5] == "20"
    assert 0.0 < float(row[4]) <= 2.0


def test_optimize_deterministic_csv(tmp_path):
    cfg = {
        "processor": {"kind": "teleportation", "d": 2},
        "channel": {"kind": "amplitude_damping", "p": 0.3},
        "method": "subgradient",
        "cost": "C1",
        "seed": 3,
        "optimizer": {"max_iters": 40},
    }
    path = _write(tmp_path, cfg)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["optimize", "--config", path, "--out", str(out1)]) == 0
    assert main(["optimize", "--config", path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_optimize_reuses_the_processor_in_process(tmp_path, capsys, monkeypatch):
    processors._pbt_processor.cache_clear()
    builds = []
    port_transfer = processors._port_transfer
    monkeypatch.setattr(processors, "_port_transfer",
                        lambda *args: builds.append(args) or port_transfer(*args))
    cfg = {
        "processor": {"kind": "pbt", "N": 3, "d": 2},
        "channel": {"kind": "amplitude_damping", "p": 0.5},
        "method": "sdp_trace",
    }
    path = _write(tmp_path, cfg)
    rows = []
    for _ in range(2):
        assert main(["optimize", "--config", path]) == 0
        rows.append(capsys.readouterr().out.strip().splitlines()[1].split(",")[:6])
    assert len(builds) == 1
    assert rows[0] == rows[1] and rows[0][:4] == ["0.5", "sdp_trace", "3", "C1"]


def test_optimize_saves_program(tmp_path):
    save = tmp_path / "program.txt"
    cfg = {
        "processor": {"kind": "teleportation", "d": 2},
        "channel": {"kind": "pauli", "probs": [0.6, 0.2, 0.1, 0.1]},
        "method": "sdp_trace",
        "save_program": str(save),
    }
    assert main(["optimize", "--config", _write(tmp_path, cfg)]) == 0
    text = save.read_text().splitlines()
    assert text[0].startswith("# dims: 4 4")
    assert text[1].startswith("# structure:")
    assert text[2].startswith("# config-hash:")
    prog = load_program(str(save))
    assert prog.shape == (4, 4)
    assert np.isclose(np.trace(prog).real, 1.0, atol=1e-8)


@pytest.mark.parametrize("cost, method", [("C1", "sdp_trace"), ("Cdiamond", "sdp_diamond")])
def test_benchmark_grid_with_baseline(tmp_path, cost, method):
    cfg = {
        "processor": {"kind": "pbt", "N": [2], "d": 2},
        "channel": {"kind": "amplitude_damping", "param": "p",
                     "values": [0.3, 0.7]},
        "methods": [method, "choi_baseline"],
        "cost": cost,
    }
    out = tmp_path / "bench.csv"
    code = main(["benchmark", "--config", _write(tmp_path, cfg),
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "param,method,N,cost_kind,cost,iterations"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 4
    # grid order preserved: p=0.3 rows first
    assert [r[0] for r in rows] == ["0.3", "0.3", "0.7", "0.7"]
    by_key = {(r[0], r[1]): float(r[4]) for r in rows}
    for p in ("0.3", "0.7"):
        assert by_key[(p, method)] <= by_key[(p, "choi_baseline")] + 1e-8


def test_benchmark_mpqc_never_worse_than_pqc(tmp_path):
    out = {}
    for kind in ("pqc", "mpqc"):
        cfg = {
            "processor": {"kind": kind, "N": [1, 2]},
            "channel": {"kind": "amplitude_damping", "param": "p", "values": [0.25]},
            "methods": ["sdp_diamond"],
        }
        path = tmp_path / f"{kind}.csv"
        assert main(["benchmark", "--config", _write(tmp_path, cfg, f"{kind}.json"),
                     "--out", str(path)]) == 0
        rows = [ln.split(",") for ln in path.read_text().strip().splitlines()[1:]]
        out[kind] = {int(r[2]): float(r[4]) for r in rows}
    for n in (1, 2):
        best_shallow = min(out["pqc"][m] for m in out["pqc"] if m <= n)
        assert out["mpqc"][n] <= best_shallow + 1e-6


def test_verify_full_passes(capsys):
    assert main(["verify", "full"]) == 0
    assert "all passed" in capsys.readouterr().out


def test_benchmark_gnuplot_export(tmp_path):
    cfg = {
        "processor": {"kind": "teleportation"},
        "channel": {"kind": "dephasing", "param": "p", "values": [0.2, 0.4]},
        "methods": ["sdp_trace"],
    }
    gp = tmp_path / "curve.dat"
    assert main(["benchmark", "--config", _write(tmp_path, cfg),
                 "--gnuplot", str(gp)]) == 0
    text = gp.read_text().strip().splitlines()
    assert text[0] == "# sdp_trace N=1 cost=C1"
    assert len(text) == 3  # header + one (param, cost) pair per grid point
    for line in text[1:]:
        param, cost = (float(tok) for tok in line.split())
        assert cost <= 1e-6  # dephasing channels are Pauli: exact


def test_random_init_requires_seed(tmp_path):
    cfg = {
        "processor": {"kind": "teleportation"},
        "channel": {"kind": "dephasing", "p": 0.3},
        "method": "subgradient",
        "optimizer": {"max_iters": 5, "init": "random"},
    }
    path = _write(tmp_path, cfg)
    assert main(["optimize", "--config", path]) == 1
    assert main(["optimize", "--config", path, "--seed", "11"]) == 0


def test_benchmark_empty_grid_is_validation_error(tmp_path):
    cfg = {
        "processor": {"kind": "teleportation"},
        "channel": {"kind": "amplitude_damping", "param": "p", "values": []},
        "methods": ["sdp_trace"],
    }
    assert main(["benchmark", "--config", _write(tmp_path, cfg)]) == 1


def test_unknown_method_is_validation_error(tmp_path):
    cfg = {
        "processor": {"kind": "teleportation"},
        "channel": {"kind": "amplitude_damping", "p": 0.5},
        "method": "gradient_descent",
    }
    assert main(["optimize", "--config", _write(tmp_path, cfg)]) == 1


def test_missing_channel_parameter_is_validation_error(tmp_path, capsys):
    cfg = {
        "processor": {"kind": "teleportation"},
        "channel": {"kind": "amplitude_damping"},
        "method": "sdp_trace",
    }
    assert main(["optimize", "--config", _write(tmp_path, cfg)]) == 1
    assert "channel.p" in capsys.readouterr().err


def test_unset_options_take_the_library_defaults(tmp_path, monkeypatch):
    # the CLI writes no default of its own: a config without an optimizer section
    # runs OptimConfig's max_iters, and --tol defaults to the SDP tolerance
    monkeypatch.setattr(optim.OptimConfig, "max_iters", 7)
    monkeypatch.setattr(sdp, "DEFAULT_TOL", 1e-5)
    tols = []
    program = DensityMatrix(np.eye(4) / 4)
    monkeypatch.setattr(sdp, "optimize_program_trace",
                        lambda proc, chi, tol: tols.append(tol) or (program, 0.0))
    ad = {"processor": {"kind": "teleportation"}, "channel": _AD}
    out = tmp_path / "row.csv"
    assert main(["optimize", "--config", _write(tmp_path, ad | {"method": "subgradient"}),
                 "--out", str(out)]) == 0
    assert out.read_text().strip().splitlines()[1].split(",")[5] == "7"
    assert main(["optimize", "--config", _write(tmp_path, ad | {"method": "sdp_trace"})]) == 0
    assert tols == [1e-5]


def test_internal_key_error_propagates(tmp_path, monkeypatch):
    # a KeyError from inside the library is a bug, not a config problem
    def broken(*_args, **_kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "_run_point", broken)
    cfg = {
        "processor": {"kind": "teleportation"},
        "channel": {"kind": "amplitude_damping", "p": 0.5},
        "method": "sdp_trace",
    }
    with pytest.raises(KeyError, match="internal"):
        main(["optimize", "--config", _write(tmp_path, cfg)])


_AD = {"kind": "amplitude_damping", "p": 0.5}
_SUBGRADIENT = {"processor": {"kind": "teleportation"}, "channel": _AD, "method": "subgradient",
                "optimizer": {"max_iters": 5}}


@pytest.mark.parametrize("command, cfg, message", [
    ("optimize", {"processor": {"kind": "teleportation"},
                  "channel": {"kind": "amplitude_damping", "p": 1.5},
                  "method": "sdp_trace"}, "outside [0, 1]"),
    ("optimize", {"processor": {"kind": "pqc", "N": 0}, "channel": _AD,
                  "method": "sdp_trace"}, "need N >= 1"),
    ("optimize", {"processor": {"kind": "teleportation", "d": 1}, "channel": _AD,
                  "method": "sdp_trace"}, "need d >= 2"),
    ("optimize", {"processor": {"kind": "teleportation"}, "channel": _AD,
                  "method": "choi_baseline", "cost": "Cfoo"}, "'Cfoo'"),
    ("benchmark", {"processor": {"kind": "teleportation"},
                   "channel": {"kind": "amplitude_damping", "values": [0.3, 1.5]},
                   "methods": ["sdp_trace"]}, "outside [0, 1]"),
    ("optimize", {"processor": {"kind": "pbt", "N": [2, 3]}, "channel": _AD,
                  "method": "sdp_trace"}, "processor.N"),
    ("optimize", {"processor": {"kind": "pbt", "N": 2.5}, "channel": _AD,
                  "method": "choi_baseline"}, "processor.N"),
    ("optimize", _SUBGRADIENT | {"optimizer": {"max_iters": "abc"}}, "optimizer.max_iters"),
    ("optimize", _SUBGRADIENT | {"optimizer": {"max_iters": 0}}, "max_iters must be >= 1"),
    ("optimize", _SUBGRADIENT | {"optimizer": {"max_iters": 2.5}}, "optimizer.max_iters"),
    ("optimize", _SUBGRADIENT | {"optimizer": {"learning_rate": {"kind": "foo"}}},
     "unknown kind 'foo'"),
    ("optimize", _SUBGRADIENT | {"optimizer": {"learning_rate": {"a": -1}}},
     "a must be positive"),
    ("optimize", _SUBGRADIENT | {"optimizer": {"init": "foo"}}, "unknown init 'foo'"),
    ("optimize", _SUBGRADIENT | {"optimizer": {"tolerance": "abc"}}, "optimizer.tolerance"),
    ("optimize", _SUBGRADIENT | {"mu": "abc"}, "mu must be float"),
    ("optimize", _SUBGRADIENT | {"cost": "Cmu", "mu": -1}, "mu must be positive"),
    ("optimize", _SUBGRADIENT | {"seed": "x"}, "seed must be int"),
    ("optimize", _SUBGRADIENT | {"cost": "F"}, "cost_kind 'F'"),
    ("optimize", {"processor": {"kind": "teleportation"}, "channel": _AD,
                  "method": "choi_baseline", "cost": "Cmu", "mu": -1}, "mu must be positive"),
    ("optimize", {"processor": {"kind": "teleportation"},
                  "channel": {"kind": "depolarizing", "p": 0.3, "d": 3},
                  "method": "sdp_trace"}, "channel dimension 3"),
    # sections and values of the wrong JSON type
    ("optimize", ["processor", "channel"], "config must be a JSON object"),
    ("optimize", _SUBGRADIENT | {"processor": "teleportation"}, "processor must be an object"),
    ("optimize", _SUBGRADIENT | {"channel": 0.5}, "channel must be an object"),
    ("optimize", _SUBGRADIENT | {"optimizer": [5]}, "optimizer must be an object"),
    ("optimize", _SUBGRADIENT | {"optimizer": {"learning_rate": 0.1}},
     "optimizer.learning_rate must be an object"),
    ("optimize", _SUBGRADIENT | {"channel": {"kind": ["dephasing"], "p": 0.5}}, "channel.kind"),
    ("optimize", _SUBGRADIENT | {"method": ["sdp_trace"]}, "unknown method"),
    ("benchmark", {"processor": {"kind": "teleportation"},
                   "channel": {"kind": "dephasing", "values": 0.3},
                   "methods": ["sdp_trace"]}, "channel.values"),
    ("benchmark", {"processor": {"kind": "teleportation"}, "channel": _AD,
                   "methods": "sdp_trace"}, "methods must be a list"),
    ("optimize", _SUBGRADIENT | {"optimizer": {"learning_rate": {"kind": "harmonic", "b": -1}}},
     "harmonic b must be > -1"),
    ("optimize", _SUBGRADIENT | {"out": 1}, "out must be a non-empty file path"),
    ("benchmark", {"processor": {"kind": "teleportation"}, "channel": _AD,
                   "methods": ["sdp_trace"], "gnuplot_out": ""}, "gnuplot_out must be"),
    ("optimize", _SUBGRADIENT | {"save_program": 5}, "save_program must be"),
    ("optimize", {"processor": {"kind": "teleportation"}, "channel": _AD,
                  "method": "closed_form_unitary"}, "needs a unitary target channel"),
    # non-finite optimizer settings
    ("optimize", _SUBGRADIENT | {"optimizer": {"learning_rate": {"a": math.inf}}},
     "a must be positive and finite"),
    ("optimize", _SUBGRADIENT | {"optimizer": {"learning_rate": {"kind": "harmonic",
                                                                 "b": math.inf}}},
     "b must be finite"),
    ("optimize", _SUBGRADIENT | {"optimizer": {"tolerance": -math.inf}},
     "tolerance must be finite"),
    ("optimize", _SUBGRADIENT | {"optimizer": {"tolerance": math.nan}},
     "optimizer.tolerance must not be NaN"),
    ("optimize", _SUBGRADIENT | {"cost": "Cmu", "mu": math.inf}, "mu must be positive and finite"),
    ("optimize", {"processor": {"kind": "teleportation"}, "channel": _AD,
                  "method": "choi_baseline", "cost": "Cmu", "mu": math.inf},
     "mu must be positive and finite"),
    # NaN settings
    ("optimize", _SUBGRADIENT | {"optimizer": {"learning_rate": {"a": math.nan}}},
     "optimizer.learning_rate.a must not be NaN"),
    ("optimize", _SUBGRADIENT | {"cost": "Cmu", "mu": math.nan}, "mu must not be NaN"),
    ("optimize", _SUBGRADIENT | {"channel": {"kind": "rotation", "theta": math.nan}},
     "channel.theta must not be NaN"),
    # processor and channel sections
    ("optimize", {"processor": {"kind": "foo"}, "channel": _AD, "method": "sdp_trace"},
     "processor.kind 'foo' not one of"),
    ("optimize", {"processor": {"kind": "pqc", "N": 1, "H0": [["a", "b"]]}, "channel": _AD,
                  "method": "sdp_trace"}, "matrix entries must be nested [re, im] pairs"),
    ("optimize", {"processor": {"kind": "pqc", "N": 1, "H0": [[1, 0], [0, 1]]}, "channel": _AD,
                  "method": "sdp_trace"}, "matrix must have shape (n, n, 2)"),
    ("optimize", {"processor": {"kind": "teleportation"}, "method": "sdp_trace"},
     "config needs a 'channel' section"),
    ("benchmark", {"processor": {"kind": "pbt", "N": []}, "channel": _AD,
                   "methods": ["sdp_trace"]}, "processor.N grid is empty"),
    ("benchmark", {"processor": {"kind": "teleportation"}, "channel": _AD},
     "benchmark config needs 'methods'"),
], ids=["p-range", "pqc-N", "teleportation-d", "cost-kind", "benchmark-grid-p", "N-list",
        "N-fraction", "max_iters-string", "max_iters-zero", "max_iters-fraction",
        "learning-rate-kind", "learning-rate-a", "init", "tolerance-string", "mu-string",
        "mu-negative", "seed-string", "first-order-cost", "baseline-mu-negative",
        "channel-dimension", "document-type", "processor-type", "channel-type",
        "optimizer-type", "learning-rate-type", "channel-kind-type", "method-type",
        "values-type", "methods-type", "harmonic-b", "out-type", "gnuplot_out-empty",
        "save_program-type", "closed-form-non-unitary", "learning-rate-a-inf",
        "harmonic-b-inf", "tolerance-inf", "tolerance-nan", "mu-inf", "baseline-mu-inf",
        "learning-rate-a-nan", "mu-nan", "theta-nan", "processor-kind", "H0-entries",
        "H0-shape", "no-channel", "N-grid-empty", "no-methods"])
def test_rejected_config_value_is_validation_error(tmp_path, capsys, command, cfg, message):
    assert main([command, "--config", _write(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("path, message", [
    ("", "--config PATH is required"),
    ("missing.json", "cannot read config"),
], ids=["empty", "unreadable"])
def test_config_path_is_validation_error(tmp_path, capsys, path, message):
    assert main(["optimize", "--config", str(tmp_path / path) if path else path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("command", ["optimize", "benchmark"])
@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_tol_must_be_finite_and_positive(tmp_path, capsys, monkeypatch, command, tol):
    # rejected before any processor is built or solve is run
    def unreachable(*_args, **_kwargs):
        raise AssertionError("processor built")

    monkeypatch.setattr(cli, "_build_processor", unreachable)
    cfg = {"processor": {"kind": "teleportation"}, "channel": _AD,
           "method": "sdp_diamond", "methods": ["sdp_diamond"]}
    assert main([command, "--config", _write(tmp_path, cfg), "--tol", tol]) == 1
    assert "--tol must be finite and > 0" in capsys.readouterr().err


@pytest.mark.parametrize("method", list(cli.METHODS))
def test_every_method_runs_on_teleportation(tmp_path, method):
    cfg = {
        "processor": {"kind": "teleportation", "d": 2},
        "channel": {"kind": "rotation", "theta": 0.3},
        "method": method,
        "cost": "Cmu",
        "optimizer": {"max_iters": 20},
    }
    out = tmp_path / "row.csv"
    assert main(["optimize", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    row = out.read_text().strip().splitlines()[1].split(",")
    # the SDPs and the closed form report their own cost; the others report `cost`
    own = {"sdp_diamond": "Cdiamond", "sdp_trace": "C1", "sdp_fidelity": "F",
           "closed_form_unitary": "CF"}
    assert row[1] == method
    assert row[3] == own.get(method, "Cmu")


@pytest.mark.parametrize("channel", [
    {"kind": "pauli", "probs": [0.7, 0.1, 0.1, 0.1], "values": [0.1, 0.2]},
    {"kind": "unitary", "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "values": [0.1, 0.2]},
], ids=["pauli", "unitary"])
def test_values_grid_without_scalar_parameter_is_validation_error(tmp_path, capsys, channel):
    # the grid value would label rows of one and the same channel
    cfg = {"processor": {"kind": "teleportation"}, "channel": channel, "methods": ["sdp_trace"]}
    out = tmp_path / "grid.csv"
    assert main(["benchmark", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "channel.values" in err and repr(channel["kind"]) in err
    assert not out.exists()


def _failing_sdp_trace(monkeypatch, p_fail):
    """Patch the trace SDP so that it raises for the amplitude-damping target of ``p_fail``."""
    orig = sdp.optimize_program_trace
    chi_fail = choi_of_channel(amplitude_damping(p_fail)).matrix

    def flaky(proc, chi_target, tol):
        if np.allclose(chi_target, chi_fail):
            raise RuntimeError("solver broke")
        return orig(proc, chi_target, tol=tol)

    monkeypatch.setattr(sdp, "optimize_program_trace", flaky)


def test_benchmark_point_failure_keeps_other_rows(tmp_path, capsys, monkeypatch):
    _failing_sdp_trace(monkeypatch, 0.7)
    cfg = {"processor": {"kind": "teleportation"},
           "channel": {"kind": "amplitude_damping", "values": [0.3, 0.7, 0.9]},
           "methods": ["sdp_trace"]}
    out = tmp_path / "grid.csv"
    assert main(["benchmark", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 2
    rows = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
    assert [r[0] for r in rows] == ["0.3", "0.9"]
    err = capsys.readouterr().err
    assert "(1, 0.7, 'sdp_trace')" in err and "solver broke" in err


@pytest.mark.parametrize("cfg, message", [
    ({"processor": {"kind": "teleportation"}, "channel": _AD, "method": "sdp_trace"},
     "numerical failure: solver broke"),
    # a finite but huge step overflows the projected spectrum
    (_SUBGRADIENT | {"optimizer": {"max_iters": 5, "learning_rate": {"a": 1e308}}},
     "numerical failure: simplex_project"),
], ids=["sdp-trace", "subgradient-huge-step"])
def test_optimize_solver_failure_is_numerical_failure(tmp_path, capsys, monkeypatch, cfg,
                                                      message):
    _failing_sdp_trace(monkeypatch, 0.5)
    assert main(["optimize", "--config", _write(tmp_path, cfg)]) == 2
    assert message in capsys.readouterr().err


def test_unitary_channel_is_simulated_exactly(tmp_path):
    # teleportation simulates every Pauli channel exactly (acceptance criterion 1)
    pauli_x = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
    cfg = {"processor": {"kind": "teleportation", "d": 2},
           "channel": {"kind": "unitary", "matrix": pauli_x}, "method": "sdp_trace"}
    out = tmp_path / "row.csv"
    assert main(["optimize", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    assert float(out.read_text().strip().splitlines()[1].split(",")[4]) <= 1e-6


def test_bad_json_is_validation_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["optimize", "--config", str(path)]) == 1


def test_capacity_error_is_validation_error(tmp_path):
    cfg = {
        "processor": {"kind": "pbt", "N": 5, "d": 2},
        "channel": {"kind": "amplitude_damping", "p": 0.5},
        "method": "sdp_trace",
    }
    assert main(["optimize", "--config", _write(tmp_path, cfg)]) == 1


def test_closed_form_unitary_method(tmp_path):
    cfg = {
        "processor": {"kind": "teleportation", "d": 2},
        "channel": {"kind": "rotation", "theta": math.pi / 2},
        "method": "closed_form_unitary",
    }
    out = tmp_path / "u.csv"
    assert main(["optimize", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    row = out.read_text().strip().splitlines()[1].split(",")
    assert row[3] == "CF"
    assert float(row[4]) <= 1e-8  # covariant unitary simulated perfectly


def test_frank_wolfe_c1_warns(tmp_path, capsys):
    cfg = {
        "processor": {"kind": "teleportation", "d": 2},
        "channel": {"kind": "amplitude_damping", "p": 0.4},
        "method": "frank_wolfe",
        "cost": "C1",
        "optimizer": {"max_iters": 20},
    }
    assert main(["optimize", "--config", _write(tmp_path, cfg)]) == 0
    assert "Cmu" in capsys.readouterr().err


def test_verify_fast_passes(capsys):
    assert main(["verify", "fast"]) == 0
    out = capsys.readouterr().out
    assert "all passed" in out
    assert "[pass]" in out


def test_verify_unknown_level():
    with pytest.raises(SystemExit):
        main(["verify", "paranoid"])  # argparse rejects the choice


def test_listing_commands(capsys):
    assert main(["channels"]) == 0
    out = capsys.readouterr().out
    assert "amplitude_damping" in out and "rotation" in out
    assert main(["processors"]) == 0
    out = capsys.readouterr().out
    assert "pbt_reduced" in out and "teleportation" in out


def test_choi_baseline_requires_teleportation_or_pbt(tmp_path):
    cfg = {
        "processor": {"kind": "pqc", "N": 1},
        "channel": {"kind": "amplitude_damping", "p": 0.5},
        "method": "choi_baseline",
    }
    assert main(["optimize", "--config", _write(tmp_path, cfg)]) == 1


def test_pqc_with_explicit_hamiltonians(tmp_path):
    def pairs(mat):
        return [[[float(np.real(x)), float(np.imag(x))] for x in row] for row in mat]

    from qprogopt.processors import amplitude_damping_hamiltonian, default_pqc_hamiltonians

    h0 = pairs(amplitude_damping_hamiltonian(0.5))
    h1 = pairs(default_pqc_hamiltonians()[1])
    cfg = {
        "processor": {"kind": "pqc", "N": 1, "H0": h0, "H1": h1},
        "channel": {"kind": "amplitude_damping", "p": 0.5},
        "method": "sdp_trace",
    }
    out = tmp_path / "pqc.csv"
    assert main(["optimize", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    cost = float(out.read_text().strip().splitlines()[1].split(",")[4])
    assert cost <= 1e-6  # exact Stinespring point is feasible
