import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

import qprogopt
from qprogopt.processors import BlockCoords, ProcessorMap


@pytest.mark.parametrize("module", ["hermlin", "channels", "processors", "optim", "sdp", "rand"])
def test_all_names_resolve(module):
    # the benchmark tracer walks __all__ and skips a stale entry silently
    mod = importlib.import_module(f"qprogopt.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    # and it traces only __all__, so a public function or class left out of it
    # would drop out of the per-layer figures unnoticed
    public = [name for name, obj in vars(mod).items()
              if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == mod.__name__]
    assert [name for name in public if name not in mod.__all__] == []


def test_weyl_frame_has_one_home():
    assert qprogopt.weyl_unitaries is qprogopt.channels.weyl_unitaries
    assert qprogopt.processors.weyl_unitaries is qprogopt.channels.weyl_unitaries


def test_the_package_imports_no_scipy():
    # scipy is a test-only dependency: neither the library nor its CLI loads it
    code = ("import importlib, json, pkgutil, sys, qprogopt\n"
            "names = [m.name for m in pkgutil.iter_modules(qprogopt.__path__)]\n"
            "for name in names:\n"
            "    importlib.import_module('qprogopt.' + name)\n"
            "print(json.dumps([names, [m for m in sys.modules if m.startswith('scipy')]]))\n")
    src = os.path.dirname(os.path.dirname(qprogopt.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    names, scipy_modules = json.loads(out.stdout)
    assert {"cli", "sdp"} <= set(names)
    assert scipy_modules == []


def test_public_surface_is_pinned():
    # an addition or removal of a public name shows up as a diff of this list
    assert sorted(qprogopt.__all__) == [
        "CapacityError", "ChoiMatrix", "DensityMatrix", "KrausChannel", "LearningRate",
        "OptimConfig", "OptimResult", "ProcessorMap", "SdpProblem", "SdpSolution",
        "SpectralDecomposition", "amplitude_damping", "channels", "choi_of_channel",
        "cost_eval", "dephasing", "depolarizing", "diamond_distance", "frank_wolfe",
        "herm_eig", "hermlin", "learn_unitary_program", "matrix_function", "max_entangled",
        "mpqc_processor", "optim", "optimize_choi_diamond", "optimize_program_diamond",
        "optimize_program_fidelity", "optimize_program_trace", "partial_trace",
        "pauli_channel", "pbt_povm", "pbt_processor", "pbt_reduced_map",
        "permute_subsystems", "pqc_processor", "processors", "project_to_choi_set",
        "project_to_states", "projected_subgradient", "rotation", "sdp", "simulation_cost",
        "simulation_gradient", "solve_sdp", "symmetric_param_count",
        "teleportation_processor", "unitary_channel", "weyl_unitaries",
    ]


def test_processor_surface_is_pinned():
    # one program-block representation: a second one shows up as a diff here
    def public(cls):
        return sorted({name for name in dir(cls) if not name.startswith("_")}
                      | set(getattr(cls, "__dataclass_fields__", ())))

    assert public(ProcessorMap) == [
        "apply_matrix", "block_coords", "d_choi", "d_in", "d_out", "d_prog", "dual", "label",
        "program_domain", "symmetry", "transfer",
    ]
    assert public(BlockCoords) == [
        "copies", "count", "counts", "embed", "index", "isometries", "of", "part", "real",
        "shapes", "slices", "transfer",
    ]
