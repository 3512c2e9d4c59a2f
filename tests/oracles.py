"""Independent oracles used by the test suite.

Everything here deliberately avoids the code paths it is used to check:
the PBT oracles build their own square-root POVM and full-space operators
with explicit embeddings (the reduced map from that POVM rather than its
closed form), the SDP baseline is a first-order splitting method, the
diamond oracle maximizes over entangled pure inputs directly, channel
actions are read off the Choi matrix, and the qubit Bell vectors are written
out by hand.  PBT programs are permuted port by port and averaged over all
port orders, random programs are drawn from a processor's program domain,
the Choi-set projection is Dykstra's alternating scheme instead of a
Newton method on the dual, and the matrix sign comes from ``np.linalg.eigh``
and an array loop over eigenvalue clusters.  The simplex projection's
thresholds are numpy prefix sums, where the library loops over plain floats.  The dense first-order loop
iterates on whole programs, with its own spectrum-to-simplex projection and
Frank-Wolfe vertex, where the library iterates on the program blocks.  The
SDP's program terms conjugate a whole-program stack by every isometry copy,
where the library reads them off the block transfer.  ``charge_refined``
rebuilds a PBT processor through the public ``ProcessorMap`` constructor with
each S_N block split by a conserved charge, a second block structure that the
program searches must agree with on covariant targets.  ``count_calls`` is no
oracle: it spies on a library function through every binding of it.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys

import numpy as np

from qprogopt import optim
from qprogopt.channels import _COSTS, DensityMatrix, max_entangled
from qprogopt.hermlin import (
    SIGN_CLUSTER_GAP,
    SIGN_ZERO_TOL,
    embed_operator,
    hermitize,
    partial_trace,
    permute_subsystems,
)
from qprogopt.processors import ProcessorMap
from qprogopt.rand import random_choi, random_density


def count_calls(monkeypatch, fn) -> list:
    """The first argument's shape of every call of ``fn`` while the test runs,
    through every binding of it in the package, as the bench tracer binds it."""
    calls = []

    def counting(a, *args):
        calls.append(a.shape)
        return fn(a, *args)

    for name, mod in list(sys.modules.items()):
        if name == "qprogopt" or name.startswith("qprogopt."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


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


def pbt_srm_dense(n_ports: int, d: int = 2) -> list:
    """Square-root measurement on (A_1..A_N, C), one element per port.

    P_i = |Phi><Phi| on (A_i, C), written out as (1/d) sum_jl |j><l| (x)
    |j><l|, and Sigma = sum_i P_i = V diag(w) V^dag from one ``eigh``.
    Element i is Sigma^-1/2 P_i Sigma^-1/2 on the support of Sigma plus an
    equal share of the projector onto its kernel.
    """
    units = np.eye(d * d).reshape(d, d, d, d)  # units[j, l] = |j><l|
    projs = []
    for i in range(n_ports):
        proj = 0
        for j, l in itertools.product(range(d), repeat=2):
            factors = [units[j, l] if k == i else np.eye(d) for k in range(n_ports)]
            proj = proj + functools.reduce(np.kron, factors + [units[j, l]]) / d
        projs.append(proj)
    w, v = np.linalg.eigh(sum(projs))
    keep = w > 1e-9 * w.max()
    supp = v[:, keep]
    inv_half = (supp / np.sqrt(w[keep])) @ supp.conj().T
    kernel = (np.eye(d ** (n_ports + 1)) - supp @ supp.conj().T) / n_ports
    return [inv_half @ p @ inv_half + kernel for p in projs]


def pbt_reduced_dense(n_ports: int, d: int = 2) -> np.ndarray:
    """Transfer matrix of the reduced PBT map from the dense square-root POVM.

    The port-1 POVM element on (A_1..A_N, C) is traced down to (A_1, C); the
    other ports contribute by permutation symmetry, hence the factor N.
    """
    povm = pbt_srm_dense(n_ports, d)
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


def program_charge(n_ports: int, d: int = 2) -> np.ndarray:
    """The diagonal of the charge Q = sum_i (a_i - b_i) on PBT programs, whose wires
    are interleaved (A_1, B_1, ..., A_N, B_N) with digits a_i, b_i."""
    digits = np.indices((d,) * (2 * n_ports)).reshape(2 * n_ports, -1)
    return (digits[0::2] - digits[1::2]).sum(axis=0)


def charge_refined(proc: ProcessorMap) -> ProcessorMap:
    """``proc``, a ``pbt_processor``, with each S_N block split by the charge Q.

    Q commutes with every port relabeling, so each block's range is Q-invariant:
    one eigenbasis W of V_1^dag Q V_1 splits the block into one block per charge
    q, with copies V_c W_q.  The refined map has the same transfer and is built
    through the public constructor; its blocks admit only programs that commute
    with Q, which lose nothing on a target whose optimum commutes with Q.
    """
    n_ports = round(math.log(proc.d_prog, proc.d_in * proc.d_out))
    charge = program_charge(n_ports, proc.d_in)
    blocks = []
    for members in proc.block_coords.isometries:
        for v in members:
            vals, w = np.linalg.eigh(v[0].conj().T @ (charge[:, None] * v[0]))
            q = np.round(vals)
            assert np.abs(vals - q).max() < 1e-9, "a block's range is not Q-invariant"
            for c in np.unique(q):
                split = v @ w[:, q == c]
                assert np.abs(charge[:, None] * split - c * split).max() < 1e-9
                blocks.append(split)
    return ProcessorMap(proc.transfer, proc.d_prog, proc.d_in, proc.d_out,
                        label=f"{proc.label}/charge", symmetry=lambda: tuple(blocks))


def random_program(proc: ProcessorMap, rng: np.random.Generator) -> DensityMatrix:
    """Random program drawn from the processor's program domain."""
    if proc.program_domain == "choi":
        return random_choi(proc.d_in, rng)
    return random_density(proc.d_prog, rng)


def program_terms(proc: ProcessorMap, a: np.ndarray) -> list:
    """Sum_c V_c^dag A_i V_c of a (k, d_prog, d_prog) stack A, one (k, m, m) stack
    per program block in class order: the terms <A_i, pi> puts on the block M
    of pi = sum_blocks sum_c V_c M V_c^dag."""
    return [hermitize(sum(vc.conj().T @ a @ vc for vc in v))
            for members in proc.block_coords.isometries for v in members]


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
    # row i: constraint i over all blocks, flattened like cvec; a group's rows
    # are zero in the blocks it does not name
    bvec = problem.rhs
    amat = np.zeros((bvec.size, cvec.size))
    start = 0
    for terms, rhs in problem.constraints:
        for blk, a in terms.items():
            amat[start : start + rhs.size, offsets[blk] : offsets[blk + 1]] = a.reshape(rhs.size, -1)
        start += rhs.size
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


def random_sdp(rng: np.random.Generator, block_dims=(4, 3), m: int = 5, face: bool = False):
    """Strictly feasible random block SDP with bounded solutions.

    With ``face`` the problem gets one more row, <v v^T, X_0> = 0 for a random
    unit vector v, and its feasible point lies on that face: the dual stays
    strictly feasible, but no X is (``facial_reduction`` undoes it).
    """
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
    if face:
        v = rng.normal(size=block_dims[0])
        v /= np.linalg.norm(v)
        amats.append([np.outer(v, v)] + [np.zeros((dim, dim)) for dim in block_dims[1:]])
    x0 = [rand_pd(dim) for dim in block_dims]
    if face:
        off_v = np.eye(block_dims[0]) - np.outer(v, v)
        x0[0] = off_v @ x0[0] @ off_v
    bvec = [sum(float(np.sum(a * x)) for a, x in zip(row, x0)) for row in amats]
    y0 = rng.normal(size=len(amats))
    cmats = []
    for blk, dim in enumerate(block_dims):
        s_blk = rand_pd(dim)
        cmats.append(s_blk + sum(y0[i] * amats[i][blk] for i in range(len(amats))))
    terms = {blk: np.array([row[blk] for row in amats]) for blk in range(len(block_dims))}
    return SdpProblem(objective=cmats, constraints=[(terms, bvec)])


def facial_reduction(problem):
    """The strictly feasible problem of ``random_sdp(..., face=True)``, with the
    same optimal value: every feasible X_0 is P Y P^T for an orthonormal basis
    P of the kernel of the last row's v v^T, so block 0 becomes Y and that row
    goes."""
    from qprogopt.sdp import SdpProblem

    [(terms, rhs)] = problem.constraints
    w, u = np.linalg.eigh(terms[0][-1])
    p = u[:, w < 0.5]
    terms = {blk: a[:-1] for blk, a in terms.items()}
    terms[0] = p.T @ terms[0] @ p
    objective = [p.T @ problem.objective[0] @ p, *problem.objective[1:]]
    return SdpProblem(objective=objective, constraints=[(terms, rhs[:-1])])


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


def simplex_project_arrays(x: np.ndarray, counts=None) -> np.ndarray:
    """``optim._simplex`` in array calls: the sorted prefix sums and the
    thresholds are numpy cumsums and the active set a ``nonzero``, with the same
    order of operations as the library's plain-float loop, the same retry on
    the entries >= max(x) - 1/min(w), shifted by max(x), where no finite
    threshold is active, and the same ValueError where an entry is NaN or +inf or
    none is finite."""
    x = np.asarray(x, dtype=float)
    w = np.ones(x.size) if counts is None else np.asarray(counts, dtype=float)
    order = x.argsort()[::-1]

    def threshold(v, order):
        u, wu = v[order], w[order]
        t = ((wu * u).cumsum() - 1.0) / wu.cumsum()
        active = (u > t).nonzero()[0]
        return t[active[-1]] if active.size else -np.inf

    with np.errstate(over="ignore", invalid="ignore"):
        theta = threshold(x, order)
        if theta == -np.inf:
            if not ((x < np.inf).all() and np.isfinite(x).any()):
                raise ValueError("simplex_project_arrays: no active threshold")
            x = x - x.max()
            theta = threshold(x, order[x[order] >= -1.0 / w.min()])
    out = np.maximum(x - theta, 0.0)
    return out / (w * out).sum()


# --- Choi-set projection oracle ----------------------------------------------------


def dykstra_choi_projection(x: np.ndarray, d: int, tol: float = 1e-11,
                            max_iters: int = 100000) -> np.ndarray:
    """Euclidean projection onto {chi >= 0, Tr_out chi = I/d} by Dykstra's
    alternating projections between the PSD cone and the affine marginal set.

    Stops once the two alternating iterates are within ``tol`` (Frobenius) of
    each other; raises if that takes more than ``max_iters`` rounds.
    """
    x = 0.5 * (x + x.conj().T)
    eye = np.eye(d)

    def psd_part(m):
        vals, vecs = np.linalg.eigh(0.5 * (m + m.conj().T))
        return (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T

    def affine(m):
        marg = np.einsum("ajbj->ab", m.reshape(d, d, d, d))
        return m + np.kron(eye / d - marg, eye / d)

    p = np.zeros_like(x)
    q = np.zeros_like(x)
    for _ in range(max_iters):
        y = psd_part(x + p)
        p = x + p - y
        x_new = affine(y + q)
        q = y + q - x_new
        x = x_new
        if np.linalg.norm(x - y) <= tol:
            out = psd_part(x)
            return out / np.trace(out).real
    raise RuntimeError(f"dykstra_choi_projection: no convergence in {max_iters} rounds")


def cluster_signs(vals: np.ndarray) -> np.ndarray:
    """Signs of descending eigenvalues, one per cluster of values closer than
    SIGN_CLUSTER_GAP: the cluster's mean beyond SIGN_ZERO_TOL gives its sign,
    and a cluster within it maps to 0."""
    signs = np.zeros_like(vals)
    i = 0
    while i < vals.size:
        j = i + 1
        while j < vals.size and vals[j - 1] - vals[j] < SIGN_CLUSTER_GAP:
            j += 1
        mean = vals[i:j].mean()
        if mean > SIGN_ZERO_TOL:
            signs[i:j] = 1.0
        elif mean < -SIGN_ZERO_TOL:
            signs[i:j] = -1.0
        i = j
    return signs


def matrix_sign(m: np.ndarray) -> np.ndarray:
    """Matrix sign of a Hermitian matrix with sign(0) := 0, by the cluster rule."""
    vals, vecs = np.linalg.eigh(np.asarray(m, dtype=complex))
    vals, vecs = vals[::-1], vecs[:, ::-1]
    return (vecs * cluster_signs(vals)) @ vecs.conj().T


# --- the first-order loop on whole programs -------------------------------------


def _dense_states_projection(x: np.ndarray) -> np.ndarray:
    """Closest density matrix: eigenvalues descending, theta from the sorted
    prefix sums, lambda = max(x - theta, 0) renormalized."""
    vals, vecs = np.linalg.eigh(hermitize(x))
    vals, vecs = vals[::-1].copy(), vecs[:, ::-1].copy()
    u = np.sort(vals)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, u.size + 1)
    s = int(np.nonzero(u > (css - 1.0) / ks)[0][-1]) + 1
    lam = np.clip(vals - (css[s - 1] - 1.0) / s, 0.0, None)
    lam = lam / lam.sum()
    return hermitize((vecs * lam) @ vecs.conj().T)


def dense_first_order(proc: ProcessorMap, chi: np.ndarray, cfg, method: str):
    """``projected_subgradient`` or ``frank_wolfe`` (``method``) iterating on
    whole d_prog x d_prog programs from the maximally mixed one: the dense
    apply and dual, a full eigendecomposition per projection and the
    eigenvector of the gradient's least eigenvalue as the Frank-Wolfe vertex.
    The cost table and the Choi-set projection are the library's.  Runs all
    ``cfg.max_iters`` iterations (no stall rule) and returns the cost trace and
    the best program."""
    terms = _COSTS[cfg.cost_kind](chi, cfg.mu)
    pi = np.eye(proc.d_prog, dtype=complex) / proc.d_prog
    cost, x = terms(proc.apply_matrix(pi))
    best, best_pi, trace = cost, pi, [(0, cost)]
    for it in range(1, cfg.max_iters + 1):
        g = hermitize(proc.dual(x))
        if method == "frank_wolfe":
            v = np.linalg.eigh(g)[1][:, 0]
            w = 2.0 / (it + 2.0)
            pi = (1.0 - w) * pi + w * np.outer(v, v.conj())
        elif proc.program_domain == "choi":
            pi = optim._choi_projection(pi - cfg.learning_rate(it) * g, proc.d_in)
        else:
            pi = _dense_states_projection(pi - cfg.learning_rate(it) * g)
        cost, x = terms(proc.apply_matrix(pi))
        if cost < best:
            best, best_pi = cost, pi
        trace.append((it, best))
    return tuple(trace), best_pi
