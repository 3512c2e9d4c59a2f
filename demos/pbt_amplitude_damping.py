"""Port-based teleportation of the amplitude damping channel.

Sweeps the damping probability and compares, for N = 2 and N = 3 ports, the
simulation error of the naive program (N copies of the target's Choi matrix)
with jointly optimized programs.  The optimized program always does at least
as well, and strictly better away from the p = 0, 1 endpoints, for both the
trace-distance cost and the diamond distance.
"""

import numpy as np

from qprogopt.channels import amplitude_damping, choi_of_channel, cost_eval
from qprogopt.processors import pbt_processor
from qprogopt.sdp import diamond_distance, optimize_program_diamond, optimize_program_trace

print(f"{'N':>2s} {'p':>5s} {'C1 choi':>10s} {'C1 opt':>10s} "
      f"{'Cdiam choi':>11s} {'Cdiam opt':>11s}")
for n in (2, 3):
    proc = pbt_processor(n, 2)
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        chi_e = choi_of_channel(amplitude_damping(p)).matrix
        prog = chi_e.copy()
        for _ in range(n - 1):
            prog = np.kron(prog, chi_e)
        sim = proc.apply_matrix(prog)
        c1_choi = cost_eval("C1", chi_e, sim)
        cd_choi = diamond_distance(chi_e - sim, 2)
        _, c1_opt = optimize_program_trace(proc, chi_e)
        _, cd_opt = optimize_program_diamond(proc, chi_e)
        print(f"{n:2d} {p:5.2f} {c1_choi:10.4f} {c1_opt:10.4f} "
              f"{cd_choi:11.4f} {cd_opt:11.4f}")
