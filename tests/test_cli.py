import json
import math

import numpy as np
import pytest

from qprogopt import cli
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


def test_benchmark_grid_with_baseline(tmp_path):
    cfg = {
        "processor": {"kind": "pbt", "N": [2], "d": 2},
        "channel": {"kind": "amplitude_damping", "param": "p",
                     "values": [0.3, 0.7]},
        "methods": ["sdp_trace", "choi_baseline"],
        "cost": "C1",
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
        assert by_key[(p, "sdp_trace")] <= by_key[(p, "choi_baseline")] + 1e-8


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
], ids=["p-range", "pqc-N", "teleportation-d", "cost-kind", "benchmark-grid-p", "N-list",
        "N-fraction", "max_iters-string", "max_iters-zero", "max_iters-fraction",
        "learning-rate-kind", "learning-rate-a", "init", "tolerance-string", "mu-string",
        "mu-negative", "seed-string", "first-order-cost", "baseline-mu-negative",
        "channel-dimension", "document-type", "processor-type", "channel-type",
        "optimizer-type", "learning-rate-type", "channel-kind-type", "method-type",
        "values-type", "methods-type"])
def test_rejected_config_value_is_validation_error(tmp_path, capsys, command, cfg, message):
    assert main([command, "--config", _write(tmp_path, cfg)]) == 1
    assert message in capsys.readouterr().err


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
