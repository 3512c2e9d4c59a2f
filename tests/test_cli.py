import argparse
import hashlib
import json
import math

import numpy as np
import pytest

from qprogopt import channels, cli, optim, processors, sdp
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


def test_saved_program_hash_covers_the_seed_and_tol_flags(tmp_path):
    save = tmp_path / "program.txt"
    cfg = {"processor": {"kind": "pqc", "N": 2}, "channel": {"kind": "amplitude_damping", "p": 0.3},
           "method": "subgradient", "optimizer": {"init": "random", "max_iters": 2}, "seed": 1,
           "save_program": str(save)}
    path = _write(tmp_path, cfg)

    def saved(*flags):
        assert main(["optimize", "--config", path, *flags]) == 0
        return save.read_bytes()

    def digest(config):
        text = json.dumps(config, sort_keys=True, separators=(",", ":"))
        return f"# config-hash: {hashlib.sha256(text.encode()).hexdigest()[:16]}"

    # without flags the hash is the config's own; a flag that repeats the
    # config's seed or the default tolerance runs, and hashes, the same config
    plain = saved()
    assert plain.decode().splitlines()[2] == digest(cfg)
    assert saved("--seed", "1") == plain
    assert saved("--tol", repr(sdp.DEFAULT_TOL)) == plain
    # a flag that changes the program changes the hash
    other_seed = saved("--seed", "2").decode().splitlines()
    assert other_seed[2] == digest(cfg | {"seed": 2})
    assert other_seed[3:] != plain.decode().splitlines()[3:]
    assert saved("--tol", "1e-6").decode().splitlines()[2] == digest(cfg | {"tol": 1e-6})


@pytest.mark.parametrize("cost, method", [("C1", "sdp_trace"), ("Cdiamond", "sdp_diamond")])
def test_benchmark_grid_with_baseline(tmp_path, cost, method):
    cfg = {
        "processor": {"kind": "pbt", "N": [2], "d": 2},
        "channel": {"kind": "amplitude_damping", "values": [0.3, 0.7]},
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
            "channel": {"kind": "amplitude_damping", "values": [0.25]},
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
        "channel": {"kind": "dephasing", "values": [0.2, 0.4]},
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


def test_benchmark_empty_grid_is_validation_error(tmp_path, capsys):
    cfg = {
        "processor": {"kind": "teleportation"},
        "channel": {"kind": "amplitude_damping", "values": []},
        "methods": ["sdp_trace"],
    }
    assert main(["benchmark", "--config", _write(tmp_path, cfg)]) == 1
    assert "channel.values must be a non-empty list" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["optimize", "benchmark"])
def test_internal_key_error_propagates(tmp_path, monkeypatch, command):
    # a KeyError from inside the library is a bug, not a config problem nor a
    # numerical failure: benchmark used to record it as a failed point
    def broken(*_args, **_kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "_run_point", broken)
    cfg = {
        "processor": {"kind": "teleportation"},
        "channel": {"kind": "amplitude_damping", "p": 0.5},
        "method": "sdp_trace",
    }
    with pytest.raises(KeyError, match="internal"):
        main([command, "--config", _write(tmp_path, cfg)])


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
    ("optimize", _SUBGRADIENT | {"seed": -1, "optimizer": {"max_iters": 5, "init": "random"}},
     "seed must be >= 0, got -1"),
    ("optimize", _SUBGRADIENT | {"seed": -1}, "seed must be >= 0, got -1"),
    ("optimize", {"processor": {"kind": "teleportation"}, "channel": _AD, "method": "sdp_trace",
                  "seed": -1}, "seed must be >= 0, got -1"),
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
     "config needs 'methods' (or 'method')"),
    # unknown keys, one per section
    ("benchmark", {"processor": {"kind": "teleportation"}, "channel": _AD,
                   "methods": ["sdp_trace"], "bogus_top": 1}, "unknown key 'bogus_top'"),
    ("optimize", {"processor": {"kind": "teleportation", "dd": 3}, "channel": _AD,
                  "method": "sdp_trace"}, "unknown key 'processor.dd'"),
    ("benchmark", {"processor": {"kind": "teleportation"},
                   "channel": {"kind": "amplitude_damping", "p": 0.3, "valuse": [0.1, 0.5, 0.9]},
                   "methods": ["sdp_trace"]}, "unknown key 'channel.valuse'"),
    ("optimize", _SUBGRADIENT | {"optimizer": {"max_iters": 5, "maxiters": 9}},
     "unknown key 'optimizer.maxiters'"),
    ("optimize", _SUBGRADIENT | {"optimizer": {"max_iters": 5, "learning_rate": {"c": 1}}},
     "unknown key 'optimizer.learning_rate.c'"),
    # sections are checked before any method runs, whichever reads them
    ("optimize", {"processor": {"kind": "teleportation"}, "channel": _AD, "method": "sdp_trace",
                  "optimizer": {"maxiters": 9}}, "unknown key 'optimizer.maxiters'"),
], ids=["p-range", "pqc-N", "teleportation-d", "cost-kind", "benchmark-grid-p", "N-list",
        "N-fraction", "max_iters-string", "max_iters-zero", "max_iters-fraction",
        "learning-rate-kind", "learning-rate-a", "init", "tolerance-string", "mu-string",
        "mu-negative", "seed-string", "seed-negative-random", "seed-negative", "seed-negative-sdp",
        "first-order-cost", "baseline-mu-negative",
        "channel-dimension", "document-type", "processor-type", "channel-type",
        "optimizer-type", "learning-rate-type", "channel-kind-type", "method-type",
        "values-type", "methods-type", "harmonic-b", "out-type", "gnuplot_out-empty",
        "save_program-type", "closed-form-non-unitary", "learning-rate-a-inf",
        "harmonic-b-inf", "tolerance-inf", "tolerance-nan", "mu-inf", "baseline-mu-inf",
        "learning-rate-a-nan", "mu-nan", "theta-nan", "processor-kind", "H0-entries",
        "H0-shape", "no-channel", "N-grid-empty", "no-methods", "top-key", "processor-key",
        "channel-key", "optimizer-key", "learning-rate-key", "optimizer-key-sdp"])
def test_rejected_config_value_is_validation_error(tmp_path, capsys, command, cfg, message):
    assert main([command, "--config", _write(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("command, cfg, message", [
    # keys that the section's kind does not read: each run used to exit 0
    ("optimize", {"processor": {"kind": "teleportation", "N": 7, "H0": [[[1, 0]]]},
                  "channel": _AD, "method": "sdp_trace"},
     "unknown key 'processor.N' for processor kind 'teleportation'"),
    ("benchmark", {"processor": {"kind": "teleportation", "N": [1, 7]},
                   "channel": {"kind": "amplitude_damping", "values": [0.3]},
                   "methods": ["sdp_trace"]},
     "unknown key 'processor.N' for processor kind 'teleportation'"),
    ("optimize", {"processor": {"kind": "teleportation"},
                  "channel": {"kind": "amplitude_damping", "p": 0.5, "d": 3},
                  "method": "sdp_trace"}, "unknown key 'channel.d' for channel kind"),
    ("optimize", {"processor": {"kind": "teleportation"},
                  "channel": {"kind": "pauli", "probs": [0.7, 0.1, 0.1, 0.1], "p": 0.3,
                              "theta": 0.1},
                  "method": "sdp_trace"}, "unknown key 'channel.p' for channel kind 'pauli'"),
    ("optimize", {"processor": {"kind": "teleportation"},
                  "channel": {"kind": "pauli", "probs": [0.7, 0.1, 0.1, 0.1], "theta": 0.1},
                  "method": "sdp_trace"}, "unknown key 'channel.theta' for channel kind"),
    ("optimize", {"processor": {"kind": "pqc", "N": 1, "d": 2}, "channel": _AD,
                  "method": "sdp_trace"}, "unknown key 'processor.d' for processor kind 'pqc'"),
    # optimizer settings, whatever the methods: the first used to exit 0, and the
    # grid to print its SDP row before it failed at the first-order point
    ("optimize", {"processor": {"kind": "teleportation"}, "channel": _AD, "method": "sdp_trace",
                  "optimizer": {"max_iters": 0, "init": "random",
                                "learning_rate": {"kind": "harmonic", "b": -5}}},
     "optimizer.init 'random' is stochastic: a seed is mandatory"),
    ("optimize", {"processor": {"kind": "teleportation"}, "channel": _AD, "method": "sdp_trace",
                  "seed": 1, "optimizer": {"learning_rate": {"kind": "harmonic", "b": -5}}},
     "harmonic b must be > -1"),
    ("benchmark", {"processor": {"kind": "teleportation"},
                   "channel": {"kind": "amplitude_damping", "values": [0.3, 0.5]},
                   "methods": ["sdp_trace", "subgradient"], "optimizer": {"max_iters": 0}},
     "max_iters must be >= 1"),
    # a grid where one point is run: optimize used to run p = 0.3 and exit 0,
    # and benchmark to write no program file
    ("optimize", {"processor": {"kind": "teleportation"},
                  "channel": {"kind": "amplitude_damping", "p": 0.3, "values": [0.1, 0.9]},
                  "method": "sdp_trace"},
     "optimize needs a config with one point, got 2 from processor.N, channel.values and methods"),
    ("benchmark", {"processor": {"kind": "teleportation"},
                   "channel": {"kind": "amplitude_damping", "values": [0.1, 0.9]},
                   "methods": ["sdp_trace"], "save_program": "program.txt"},
     "save_program needs a config with one point, got 2"),
    ("optimize", {"processor": {"kind": "teleportation"}, "channel": _AD,
                  "method": "sdp_trace", "methods": ["sdp_trace", "sdp_diamond"]},
     "method 'sdp_trace' and methods ['sdp_trace', 'sdp_diamond'] disagree"),
    ("benchmark", {"processor": {"kind": "teleportation"}, "channel": _AD,
                   "method": "sdp_trace", "methods": ["sdp_diamond"]},
     "method 'sdp_trace' and methods ['sdp_diamond'] disagree"),
    # checks of a point's method and channel: each grid used to print its first
    # rows before the check failed at a later point, and the last to exit 2
    ("benchmark", {"processor": {"kind": "teleportation"},
                   "channel": {"kind": "amplitude_damping", "values": [0.3, 0.5]},
                   "methods": ["sdp_trace", "subgradient"], "cost": "F"},
     "OptimConfig: cost_kind 'F' not in"),
    ("benchmark", {"processor": {"kind": "pqc", "N": 1}, "channel": _AD,
                   "methods": ["sdp_trace", "choi_baseline"]},
     "choi_baseline is not defined for processor kind 'pqc'"),
    ("benchmark", {"processor": {"kind": "teleportation"}, "channel": _AD,
                   "methods": ["sdp_trace", "closed_form_unitary"]},
     "closed_form_unitary needs a unitary target channel"),
    ("benchmark", {"processor": {"kind": "teleportation", "d": 3},
                   "channel": {"kind": "depolarizing", "p": 0.3, "d": 2},
                   "methods": ["sdp_trace"]}, "channel dimension 2 != processor dimension 3"),
    ("benchmark", {"processor": {"kind": "teleportation"},
                   "channel": {"kind": "amplitude_damping", "values": [0.3, 1.5]},
                   "methods": ["sdp_trace"]},
     "amplitude_damping: parameter p=1.5 outside [0, 1]"),
    ("benchmark", {"processor": {"kind": "pbt_reduced", "N": 2},
                   "channel": {"kind": "amplitude_damping", "values": [0.3, 0.5]},
                   "methods": ["sdp_diamond", "frank_wolfe"], "cost": "Cmu"},
     "frank_wolfe is not defined for processor kind 'pbt_reduced'"),
], ids=["teleportation-N-H0", "teleportation-N-grid", "amplitude-damping-d", "pauli-p",
        "pauli-theta", "pqc-d", "sdp-optimizer", "sdp-learning-rate", "grid-max-iters",
        "optimize-values", "grid-save-program", "optimize-methods-disagree",
        "benchmark-methods-disagree", "first-order-cost-grid", "baseline-pqc-grid",
        "closed-form-non-unitary-grid", "channel-dimension-grid", "p-range-grid",
        "frank-wolfe-reduced-grid"])
def test_config_is_checked_before_any_point_runs(tmp_path, capsys, monkeypatch, command, cfg,
                                                 message):
    def unreachable(*_args, **_kwargs):
        raise AssertionError("a point ran")

    monkeypatch.setattr(cli, "_run_point", unreachable)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "rows.csv"
    assert main([command, "--config", _write(tmp_path, cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists() and not (tmp_path / "program.txt").exists()
    assert captured.err.startswith("error:") and message in captured.err


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


@pytest.mark.parametrize("p_fail, code, rows", [(None, 0, 8), (0.7, 2, 6)],
                         ids=["all-points", "failed-points"])
def test_benchmark_stdout_is_its_csv_and_wall_times(tmp_path, capsys, monkeypatch, p_fail, code,
                                                    rows):
    # with the last column cut, stdout is the CSV, the failed points' rows left
    # out; each N's processor is built once, before any point runs
    if p_fail is not None:
        _failing_sdp_trace(monkeypatch, p_fail)
    builds = []
    pbt = processors.pbt_processor
    monkeypatch.setattr(processors, "pbt_processor",
                        lambda *args: builds.append(args) or pbt(*args))
    cfg = {"processor": {"kind": "pbt", "N": [1, 2], "d": 2},
           "channel": {"kind": "amplitude_damping", "values": [0.3, 0.7]},
           "methods": ["sdp_trace", "choi_baseline"]}
    out = tmp_path / "grid.csv"
    assert main(["benchmark", "--config", _write(tmp_path, cfg), "--out", str(out)]) == code
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == cli.CSV_HEADER + ",wall_time_s" and len(lines) == 1 + rows
    assert builds == [(1, 2), (2, 2)]
    assert "".join(line.rsplit(",", 1)[0] + "\n" for line in lines) == out.read_text()


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
], ids=["sdp-trace"])
def test_optimize_solver_failure_is_numerical_failure(tmp_path, capsys, monkeypatch, cfg,
                                                      message):
    _failing_sdp_trace(monkeypatch, 0.5)
    assert main(["optimize", "--config", _write(tmp_path, cfg)]) == 2
    assert message in capsys.readouterr().err


def test_optimize_huge_step_projects_back(tmp_path, capsys):
    # a finite but huge step overflows the sums of the projected spectrum; the
    # run used to end "numerical failure: simplex_project", and now projects
    cfg = _SUBGRADIENT | {"optimizer": {"max_iters": 5, "learning_rate": {"a": 1e308}}}
    out = tmp_path / "row.csv"
    assert main(["optimize", "--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    row = out.read_text().strip().splitlines()[1].split(",")
    assert row[1:6] == ["subgradient", "1", "C1", "0.63507978086", "5"]


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


# closed_form_unitary on a PBT or MPQC map warns of a degenerate maximizer and runs
@pytest.mark.filterwarnings("ignore:learn_unitary_program:UserWarning")
@pytest.mark.parametrize("cost", ["Cmu", "F"])
@pytest.mark.parametrize("method", list(cli.METHODS))
@pytest.mark.parametrize("kind", list(cli.PROCESSORS))
def test_every_processor_and_method_runs_or_is_rejected_before_any_row(tmp_path, capsys, kind,
                                                                        method, cost):
    # a pair that the config's processor, channel or cost does not admit exits 1
    # in set-up: none prints its header, runs a point and then stops
    cfg = {"processor": {"kind": kind}, "channel": {"kind": "rotation", "theta": 0.3},
           "method": method, "cost": cost, "optimizer": {"max_iters": 5}}
    code = main(["optimize", "--config", _write(tmp_path, cfg)])
    captured = capsys.readouterr()
    assert code in (0, 1)
    if code == 1:
        assert captured.out == "" and captured.err.startswith("error:")
    else:
        assert len(captured.out.splitlines()) == 2


def test_frank_wolfe_c1_warns_once_per_run(tmp_path, capsys, monkeypatch):
    runs = []
    frank_wolfe = optim.frank_wolfe
    monkeypatch.setattr(optim, "frank_wolfe",
                        lambda *args: runs.append(args) or frank_wolfe(*args))
    cfg = {"processor": {"kind": "teleportation"},
           "channel": {"kind": "amplitude_damping", "values": [0.3, 0.5]},
           "methods": ["frank_wolfe"], "cost": "C1", "optimizer": {"max_iters": 5}}
    assert main(["benchmark", "--config", _write(tmp_path, cfg)]) == 0
    assert len(runs) == 2
    assert capsys.readouterr().err.count("warning: frank_wolfe with the non-smooth C1") == 1


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
    assert [line.split()[0] for line in out.splitlines()] == sorted(cli.CHANNELS)
    assert main(["processors"]) == 0
    out = capsys.readouterr().out
    assert "pbt_reduced" in out and "teleportation" in out
    assert [line.split()[0] for line in out.splitlines()] == list(cli.PROCESSORS)


# a value for each channel parameter, so that every channel kind builds
_PARAMETERS = {"p": 0.25, "theta": 0.3, "probs": [0.7, 0.1, 0.1, 0.1],
               "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}


@pytest.mark.parametrize("section, kind", [("processor", kind) for kind in cli.PROCESSORS]
                         + [("channel", kind) for kind in cli.CHANNELS])
def test_every_table_kind_builds_from_a_minimal_config(tmp_path, capsys, monkeypatch, section,
                                                       kind):
    # each kind's constructor is looked up on its module when called, so a
    # wrapper put there (as the benchmark's tracer puts one) sees every build
    module, entry = ((processors, cli.PROCESSORS[kind]) if section == "processor"
                     else (channels, cli.CHANNELS[kind]))
    calls = []
    make = getattr(module, entry.make)
    monkeypatch.setattr(module, entry.make, lambda *args: calls.append(args) or make(*args))
    cfg = {"processor": {"kind": "teleportation"}, "channel": _AD, "method": "sdp_trace"}
    if section == "processor":
        cfg["processor"] = {"kind": kind}
    else:
        key = entry.keys[0]
        cfg["channel"] = {"kind": kind, key: _PARAMETERS[key]}
    assert main(["optimize", "--config", _write(tmp_path, cfg)]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[1:3] == ["sdp_trace", "1"] and len(calls) == 1


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


def test_benchmark_csv_is_identical_cold_warm_and_after_clearing_the_caches(tmp_path,
                                                                            monkeypatch):
    # the paper's amplitude-damping grid on PBT N=2: a warm run reuses the
    # processor and every SDP template, and writes the same bytes
    cfg = {"processor": {"kind": "pbt", "N": 2, "d": 2},
           "channel": {"kind": "amplitude_damping", "values": [0.1, 0.3, 0.5, 0.7, 0.9]},
           "methods": ["sdp_diamond", "sdp_trace", "sdp_fidelity", "choi_baseline"],
           "cost": "Cdiamond"}
    path = _write(tmp_path, cfg)
    other = tmp_path / "other.json"
    other.write_text(json.dumps({**cfg, "channel": {**cfg["channel"], "values": [0.2]}}))

    def clear():
        processors._pbt_processor.cache_clear()
        sdp._free_watrous_template.cache_clear()

    def run(name, config=path):
        out = tmp_path / name
        assert main(["benchmark", "--config", str(config), "--out", str(out)]) == 0
        return out.read_bytes()

    builds = []
    post_init = sdp.SdpProblem.__post_init__
    monkeypatch.setattr(sdp.SdpProblem, "__post_init__",
                        lambda self: builds.append(1) or post_init(self))
    clear()
    cold = run("cold.csv")
    assert len(builds) == 3  # the diamond, trace and fidelity (rank 2) programs
    warm = run("warm.csv")
    assert len(builds) == 3
    clear()
    run("other.csv", other)  # p = 0.2 builds the templates this time
    assert len(builds) == 6
    assert run("cleared.csv") == warm == cold
    assert len(builds) == 6
    assert len(cold.splitlines()) == 21


def test_successive_calls_share_no_arguments(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "cmd_run", lambda args: seen.append(vars(args)) or 0)
    monkeypatch.setattr(sdp, "DEFAULT_TOL", 1e-6)
    assert main(["optimize", "--config", "a.json", "--out", "a.csv", "--seed", "3",
                 "--tol", "1e-4", "--gnuplot", "a.gp"]) == 0
    assert main(["optimize", "--config", "b.json"]) == 0
    assert seen[0] == {"command": "optimize", "config": "a.json", "out": "a.csv",
                       "gnuplot": "a.gp", "seed": 3, "tol": 1e-4}
    assert seen[1] == {"command": "optimize", "config": "b.json", "out": None,
                       "gnuplot": None, "seed": None, "tol": 1e-6}
    for argv in (["optimize"], ["optimize", "--config", "b.json", "--seed", "x"], ["nope"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    # a rejected command line leaves the parser, built once per process, usable
    assert main(["optimize", "--config", "c.json", "--seed", "5"]) == 0
    assert seen[2] == {"command": "optimize", "config": "c.json", "out": None,
                       "gnuplot": None, "seed": 5, "tol": 1e-6}


def test_in_process_calls_build_the_parser_once(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *args, **kwargs: built.append(kwargs.get("prog"))
                        or init(self, *args, **kwargs))
    cli._parser.cache_clear()
    cfg = {"processor": {"kind": "teleportation"}, "channel": {"kind": "dephasing", "p": 0.2},
           "method": "sdp_trace", "methods": ["sdp_trace"]}
    path = _write(tmp_path, cfg)
    for argv in (["optimize", "--config", path], ["benchmark", "--config", path],
                 ["channels"], ["processors"], ["optimize", "--config", path, "--tol", "1e-6"]):
        assert main(argv) == 0
    # the top-level parser and its five subparsers
    assert built.count("qprogopt") == 1 and len(built) == 6


def test_reduced_map_dimension_cap_is_validation_error(tmp_path, capsys):
    cfg = {"processor": {"kind": "pbt_reduced", "N": 2, "d": 6},
           "channel": {"kind": "depolarizing", "p": 0.5, "d": 6},
           "method": "sdp_trace"}
    assert main(["optimize", "--config", _write(tmp_path, cfg)]) == 1
    assert "d = 6 exceeds cap 5" in capsys.readouterr().err
