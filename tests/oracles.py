"""Independent oracles used by the test suite.

Everything here deliberately avoids the code paths it is used to check:
the PBT oracles build full-space operators with explicit embeddings (the
reduced map from the square-root POVM rather than its closed form), the
SDP baseline is a first-order splitting method, the diamond oracle
maximizes over entangled pure inputs directly, channel actions are read off
the Choi matrix, and the qubit Bell vectors are written out by hand.  PBT
programs are permuted port by port and averaged over all port orders, and
random programs are drawn from a processor's program domain.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from qprogopt.channels import DensityMatrix, max_entangled
from qprogopt.hermlin import embed_operator, hermitize, partial_trace, permute_subsystems
from qprogopt.processors import ProcessorMap, pbt_povm
from qprogopt.rand import random_choi, random_density


def pbt_apply_dense(n_ports: int, d: int, povm, pi: np.ndarray) -> np.ndarray:
    """Direct dense evaluation of the PBT program-to-Choi map.

    Builds every operator on the full (A_1, B_1, ..., A_N, B_N, C, D) space.
    """
    dims = [d] * (2 * n_ports) + [d, d]
    a_pos = [2 * i for i in range(n_ports)]
    b_pos = [2 * i + 1 for i in range(n_ports)]
    c_pos, d_pos = 2 * n_ports, 2 * n_ports + 1
    phi_dc = max_entangled(d).matrix  # ordered (D, C)
    full = np.kron(pi, phi_dc)  # current ordering: program wires, D, C
    cur = list(range(2 * n_ports)) + [d_pos, c_pos]
    perm = [cur.index(i) for i in range(2 * n_ports + 2)]
    full = permute_subsystems(full, [d] * (2 * n_ports) + [d, d], perm)
    out = np.zeros((d * d, d * d), dtype=complex)
    for i in range(n_ports):
        big = embed_operator(povm[i], dims, targets=a_pos + [c_pos])
        red = partial_trace(big @ full, dims, keep=[b_pos[i], d_pos])  # (B_i, D)
        out += permute_subsystems(red, [d, d], [1, 0])  # reorder to (D, B_out)
    return out


def pbt_reduced_dense(n_ports: int, d: int = 2, singlet: bool = False) -> np.ndarray:
    """Transfer matrix of the reduced PBT map from the dense square-root POVM.

    The port-1 POVM element on (A_1..A_N, C) is traced down to (A_1, C); the
    other ports contribute by permutation symmetry, hence the factor N.
    """
    povm = pbt_povm(n_ports, d, singlet)
    reduced = partial_trace(povm[0], [d] * (n_ports + 1), keep=[0, n_ports])
    p4 = reduced.reshape(d, d, d, d)  # legs (row a, row C, col a, col C)
    eye = np.eye(d)
    coef = n_ports / d**n_ports
    return coef * np.einsum("uqvp,yb,zc->pbqcvyuz", p4, eye, eye).reshape(d**4, d**4)


def permute_ports(pi: np.ndarray, n_ports: int, d: int, order) -> np.ndarray:
    """Relabel PBT ports of a program: new port j carries old port order[j]."""
    if sorted(order) != list(range(n_ports)):
        raise ValueError(f"permute_ports: invalid port order {list(order)}")
    perm = []
    for j in order:
        perm.extend([2 * j, 2 * j + 1])
    return permute_subsystems(np.asarray(pi), [d] * (2 * n_ports), perm)


def symmetrize_program(pi: np.ndarray, n_ports: int, d: int) -> DensityMatrix:
    """Average a PBT program over all joint (A_i, B_i) port relabelings."""
    m = np.asarray(pi)
    if m.shape != (d ** (2 * n_ports),) * 2:
        raise ValueError(
            f"symmetrize_program: program shape {m.shape} does not match "
            f"N={n_ports}, d={d}"
        )
    orders = list(itertools.permutations(range(n_ports)))
    acc = sum(permute_ports(m, n_ports, d, order) for order in orders)
    return DensityMatrix(hermitize(acc / len(orders)))


def random_program(proc: ProcessorMap, rng: np.random.Generator) -> DensityMatrix:
    """Random program drawn from the processor's program domain."""
    if proc.program_domain == "choi":
        return random_choi(proc.d_in, rng).state
    return random_density(proc.d_prog, rng)


# --- channels from their Choi matrices ------------------------------------------


def apply_via_choi(chi: np.ndarray, d_in: int, rho: np.ndarray) -> np.ndarray:
    """Action of the map whose normalized Choi matrix (ordered input copy,
    output) is chi: E(rho) = d_in Tr_in[(rho^T (x) I) chi]."""
    d_out = chi.shape[0] // d_in
    big = np.kron(rho.T, np.eye(d_out)) @ chi
    return d_in * partial_trace(big, [d_in, d_out], keep=[1])


def qubit_bell_basis() -> list:
    """The Bell vectors (I (x) W)|Phi> for W = I, Z, X, XZ, in that order."""
    vecs = ([1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0])
    return [np.array(v, dtype=complex) / math.sqrt(2.0) for v in vecs]


# --- first-order SDP baseline -------------------------------------------------


def admm_baseline(problem, rho: float = 1.0, iters: int = 20000, tol: float = 1e-10):
    """First-order splitting baseline for block SDPs.

    Alternates a least-squares projection onto the affine constraints with a
    projection onto the PSD cone, plus a scaled dual update.  Returns the
    objective value at the PSD iterate.
    """
    dims = problem.block_dims
    sizes = [dim * dim for dim in dims]
    offsets = np.cumsum([0] + sizes)

    def unflatten(vec):
        return [
            vec[offsets[i] : offsets[i + 1]].reshape(dims[i], dims[i])
            for i in range(len(dims))
        ]

    cvec = np.concatenate([c.ravel() for c in problem.objective])
    # row i: constraint i over all blocks, flattened like cvec
    amat = np.concatenate([a.reshape(a.shape[0], -1) for a in problem.constraints], axis=1)
    bvec = problem.rhs
    gram = amat @ amat.T
    gram_inv = np.linalg.pinv(gram)

    def proj_affine(vec):
        return vec - amat.T @ (gram_inv @ (amat @ vec - bvec))

    def proj_psd(vec):
        out = []
        for m in unflatten(vec):
            m = 0.5 * (m + m.T)
            w, v = np.linalg.eigh(m)
            out.append((v * np.clip(w, 0.0, None)) @ v.T)
        return np.concatenate([m.ravel() for m in out])

    x = proj_affine(np.zeros_like(cvec))
    z = proj_psd(x)
    u = np.zeros_like(x)
    for _ in range(iters):
        x = proj_affine(z - u - cvec / rho)
        z_new = proj_psd(x + u)
        r = np.linalg.norm(x - z_new)
        s = rho * np.linalg.norm(z_new - z)
        z = z_new
        u = u + x - z
        if r < tol and s < tol:
            break
    return float(cvec @ z)


def random_sdp(rng: np.random.Generator, block_dims=(4, 3), m: int = 5):
    """Strictly feasible random block SDP with bounded solutions."""
    from qprogopt.sdp import SdpProblem

    def rand_sym(dim):
        g = rng.normal(size=(dim, dim))
        return 0.5 * (g + g.T)

    def rand_pd(dim):
        g = rng.normal(size=(dim, dim))
        return g @ g.T + 0.1 * np.eye(dim)

    amats = [[rand_sym(dim) for dim in block_dims] for _ in range(m)]
    # keep the feasible set bounded: one constraint fixes the total trace
    amats.append([np.eye(dim) for dim in block_dims])
    x0 = [rand_pd(dim) for dim in block_dims]
    bvec = [sum(float(np.sum(a * x)) for a, x in zip(row, x0)) for row in amats]
    y0 = rng.normal(size=m + 1)
    cmats = []
    for blk, dim in enumerate(block_dims):
        s_blk = rand_pd(dim)
        cmats.append(s_blk + sum(y0[i] * amats[i][blk] for i in range(m + 1)))
    return SdpProblem(
        objective=cmats,
        constraints=[np.array([row[blk] for row in amats]) for blk in range(len(block_dims))],
        rhs=bvec,
    )


# --- diamond-norm oracle --------------------------------------------------------


def diamond_grid_oracle(chi_omega: np.ndarray, coarse: int = 7, polish: bool = True) -> float:
    """max over entangled pure inputs of || (I (x) Omega)(phi) ||_1, qubits.

    Up to a local unitary on the reference side (which leaves the trace norm
    invariant) the input is |phi> = sqrt(t)|0>|f0> + sqrt(1-t)|1>|f1> with
    {f0, f1} an orthonormal frame; the frame is swept over SU(2) Euler
    angles and t over [0, 1], then the best grid point is polished with a
    derivative-free simplex search.
    """
    d = 2
    blocks = [[apply_via_choi(chi_omega, d, np.outer(_e(j), _e(l).conj()))
               for l in range(d)] for j in range(d)]

    def value(params):
        t, alpha, beta, gamma = params
        t = min(max(t, 0.0), 1.0)
        frame = _euler_unitary(alpha, beta, gamma)
        amps = [math.sqrt(t), math.sqrt(1.0 - t)]
        out = np.zeros((d * d, d * d), dtype=complex)
        for i in range(d):
            for k in range(d):
                coeff = amps[i] * amps[k]
                if coeff == 0.0:
                    continue
                # reference dyad |i><k| tensor Omega(|f_i><f_k|)
                fik = np.outer(frame[:, i], frame[:, k].conj())
                om = sum(
                    fik[j, l] * blocks[j][l] for j in range(d) for l in range(d)
                )
                out[i * d : (i + 1) * d, k * d : (k + 1) * d] += coeff * om
        vals = np.linalg.eigvalsh(0.5 * (out + out.conj().T))
        return float(np.abs(vals).sum())

    best, best_params = -1.0, None
    ts = np.linspace(0.0, 1.0, coarse)
    angles = np.linspace(0.0, math.pi, coarse)
    for t, a, b, g in itertools.product(ts, angles, angles, angles):
        v = value((t, a, b, g))
        if v > best:
            best, best_params = v, (t, a, b, g)
    if polish:
        from scipy.optimize import minimize

        res = minimize(lambda p: -value(p), np.asarray(best_params),
                       method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000})
        best = max(best, -float(res.fun))
    return best


def _e(j: int, d: int = 2) -> np.ndarray:
    v = np.zeros(d, dtype=complex)
    v[j] = 1.0
    return v


def _euler_unitary(alpha: float, beta: float, gamma: float) -> np.ndarray:
    rz1 = np.diag([np.exp(-0.5j * alpha), np.exp(0.5j * alpha)])
    ry = np.array(
        [
            [math.cos(beta / 2), -math.sin(beta / 2)],
            [math.sin(beta / 2), math.cos(beta / 2)],
        ],
        dtype=complex,
    )
    rz2 = np.diag([np.exp(-0.5j * gamma), np.exp(0.5j * gamma)])
    return rz1 @ ry @ rz2


# --- simplex projection oracle ---------------------------------------------------


def simplex_grid_project(x: np.ndarray, step: float = 2e-3) -> np.ndarray:
    """Brute-force Euclidean projection onto the simplex by fine-grid search."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n == 2:
        grid = np.arange(0.0, 1.0 + step, step)
        pts = np.stack([grid, 1.0 - grid], axis=1)
    elif n == 3:
        grid = np.arange(0.0, 1.0 + step, step)
        pts = []
        for a in grid:
            bs = np.arange(0.0, 1.0 - a + step, step)
            for b in bs:
                pts.append((a, b, 1.0 - a - b))
        pts = np.asarray(pts)
    else:
        raise ValueError("oracle supports dimensions 2 and 3 only")
    dists = np.sum((pts - x) ** 2, axis=1)
    return pts[np.argmin(dists)]
