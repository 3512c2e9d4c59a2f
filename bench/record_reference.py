"""Record the values the pbt_sweep and small_sdp checks compare against.

    python3 bench/record_reference.py

Writes ``bench/reference.json``: the cost of every pbt_sweep grid point as
printed by ``qprogopt optimize``, the SHA-256 of the CSV those rows make, the
fidelity of the Choi program chi^(tensor N) at each (N, p), and the
optimize_choi_diamond values with their unoptimized Choi-program diamond
distances.  Re-record only with a change that is meant to move these values.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np

import run
import workloads


def main() -> None:
    q = run.import_library()
    workdir = os.path.join(run.OUT_DIR, f"record-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.pbt_sweep(q, None, False, workdir, reference={})
        outputs = {op.label: op.call() for op in wl.ops}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    grid = workloads.sweep_grid(False)
    ref = {"sweep": {}, "sweep_choi_fidelity": {}, "choi": {}, "choi_program_diamond": {}}
    for n, p, m in grid:
        key = workloads.sweep_key(n, p, m)
        ref["sweep"][key] = float(workloads.sweep_row(outputs[key])[4])
    ref["sweep_csv_sha256"] = hashlib.sha256(
        workloads.sweep_csv(grid, outputs).encode()).hexdigest()
    ch, pr = q.channels, q.processors
    for n in workloads.SWEEP_N:
        proc = pr.pbt_processor(n)
        for p in workloads.SWEEP_P:
            chi = ch.choi_of_channel(ch.amplitude_damping(p)).matrix
            prog = chi
            for _ in range(n - 1):
                prog = np.kron(prog, chi)
            ref["sweep_choi_fidelity"][f"N={n} p={p}"] = ch.bures_fidelity(
                chi, proc.apply_matrix(prog))
    for name, chi in workloads.choi_targets():
        for n in workloads.SMALL_CHOI_PORTS:
            key = workloads.choi_key(name, n)
            ref["choi"][key] = q.sdp.optimize_choi_diamond(n, 2, chi)[1]
            red = pr.pbt_reduced_map(n, 2)
            ref["choi_program_diamond"][key] = q.sdp.diamond_distance(
                chi - red.apply_matrix(chi), 2)
    ref["recorded_with"] = run.metadata(list(os.getloadavg()))
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
