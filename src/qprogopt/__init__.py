"""Optimal program states for programmable quantum processors.

A numpy library for building processor maps (teleportation, port-based
teleportation, conditioned-Hamiltonian circuits), evaluating channel
simulation costs, and minimizing them with first-order methods or a small
dense SDP solver.
"""

from .hermlin import (
    SpectralDecomposition,
    herm_eig,
    matrix_function,
    partial_trace,
    permute_subsystems,
)
from .channels import (
    DensityMatrix,
    ChoiMatrix,
    KrausChannel,
    max_entangled,
    choi_of_channel,
    weyl_unitaries,
    amplitude_damping,
    depolarizing,
    dephasing,
    pauli_channel,
    unitary_channel,
    rotation,
    cost_eval,
)
from .processors import (
    CapacityError,
    ProcessorMap,
    teleportation_processor,
    pbt_povm,
    pbt_processor,
    pbt_reduced_map,
    symmetric_param_count,
    pqc_processor,
    mpqc_processor,
)
from .optim import (
    LearningRate,
    OptimConfig,
    OptimResult,
    simulation_cost,
    simulation_gradient,
    project_to_states,
    project_to_choi_set,
    projected_subgradient,
    frank_wolfe,
    learn_unitary_program,
)
from .sdp import (
    SdpProblem,
    SdpSolution,
    solve_sdp,
    diamond_distance,
    optimize_program_trace,
    optimize_program_diamond,
    optimize_program_fidelity,
    optimize_choi_diamond,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
