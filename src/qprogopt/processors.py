"""Programmable-processor families as linear maps on program states.

A processor is a CPTP map from program states to the Choi matrix of the
simulated channel, stored as one transfer (superoperator) matrix; see
``ProcessorMap`` for the conventions (Wood, Biamonte, Cory,
arXiv:1111.6950).  Three families are provided:

* ``teleportation_processor`` -- generalized teleportation over a
  d^2-dimensional program (Bell measurement + ``weyl_unitaries`` corrections).
* ``pbt_processor`` / ``pbt_reduced_map`` -- port-based teleportation with N
  ports; the reduced variant acts on a single d^2-dimensional Choi block and
  agrees with the full map on program states of the form chi^(tensor N).
  It is closed form, from the Young-diagram PBT fidelity (Studzinski et al.,
  Sci. Rep. 7, 10871 (2017); qubits: Ishizaka-Hiroshima, PRA 79, 042306 (2009)).
* ``pqc_processor`` / ``mpqc_processor`` -- conditioned-Hamiltonian circuit
  processors with qubit (resp. qutrit) program registers.

A program is a plain ``DensityMatrix`` (or its ndarray); ``program_domain``
says whether it must also be a single-port Choi matrix.  PBT programs
interleave port wires as (A_1, B_1, A_2, B_2, ...), so ``chi^(tensor N)`` is
a plain Kronecker power of a Choi matrix.  PQC programs order registers as
(R_0, R_1, ..., R_N).  Choi outputs are always ordered (input copy, output).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channels import _X, _Y, _Z, MatrixLike, as_matrix, max_entangled, weyl_unitaries
from .hermlin import embed_operator, hermitize, matrix_function, matrix_inv_sqrt

__all__ = [
    "CapacityError",
    "ProcessorMap",
    "teleportation_processor",
    "pbt_povm",
    "pbt_processor",
    "pbt_reduced_map",
    "symmetric_param_count",
    "default_pqc_hamiltonians",
    "amplitude_damping_hamiltonian",
    "pqc_processor",
    "mpqc_processor",
]

PROCESSOR_CPTP_TOL = 1e-8

# Size caps, enforced with CapacityError rather than silent slowness.
TELEPORTATION_MAX_D = 5  # the transfer matrix has d^8 entries
PBT_FULL_MAX_PROG_DIM = 64  # full PBT: d^(2N) <= 64, i.e. N <= 3 for qubits
PBT_REDUCED_MAX_PORTS = 8
PQC_MAX_GATES = 6
MPQC_MAX_GATES = 4


class CapacityError(ValueError):
    """Requested processor exceeds the configured dense-size caps."""


@dataclass(frozen=True, eq=False)
class ProcessorMap:
    """CPTP map Lambda from program space (dim d_prog) to Choi space (dim d_in*d_out).

    The map is stored as its transfer matrix S of shape (d_choi^2, d_prog^2):
    vec(Lambda(pi)) = S vec(pi) with the row-major vec(M)[i*n + j] = M[i, j],
    and the dual is vec(Lambda*(X)) = S^dag vec(X).  The dual is generally
    not trace preserving.  Construction checks trace preservation as
    Lambda*(I) = I and complete positivity on the map's Choi operator
    J[(m, r), (n, c)] = S[(r, c), (m, n)].
    """

    transfer: np.ndarray
    d_prog: int
    d_in: int
    d_out: int
    label: str = ""
    # natural program domain: "states" (any density matrix) or "choi"
    # (single-port Choi matrices, Tr_out = I/d); only the reduced PBT map
    # uses the latter.
    program_domain: str = "states"

    def __post_init__(self):
        s = np.asarray(self.transfer, dtype=complex)
        dc, dp = self.d_choi, self.d_prog
        if s.shape != (dc * dc, dp * dp):
            raise ValueError(
                f"ProcessorMap: transfer shape {s.shape}, expected ({dc * dc}, {dp * dp})"
            )
        object.__setattr__(self, "transfer", s)
        dev = float(np.abs(self.dual(np.eye(dc)) - np.eye(dp)).max())
        if dev > PROCESSOR_CPTP_TOL:
            raise ValueError(
                f"ProcessorMap {self.label!r}: dual(I) deviates from I by {dev:.3e}"
            )
        j = s.reshape(dc, dc, dp, dp).transpose(2, 0, 3, 1).reshape(dp * dc, dp * dc)
        vals = np.linalg.eigvalsh(hermitize(j))
        scale = float(np.abs(vals).max())
        if vals[0] < -1e-8 * max(scale, 1.0):
            raise ValueError(
                f"ProcessorMap {self.label!r}: map is not completely positive "
                f"(lambda_min = {vals[0]:.3e})"
            )

    @property
    def d_choi(self) -> int:
        return self.d_in * self.d_out

    def apply_matrix(self, pi: MatrixLike) -> np.ndarray:
        """Raw Choi-space matrix of the simulated channel (no wrapping)."""
        m = as_matrix(pi)
        if m.shape != (self.d_prog, self.d_prog):
            raise ValueError(
                f"ProcessorMap {self.label!r}: program shape {m.shape}, "
                f"expected ({self.d_prog}, {self.d_prog})"
            )
        dc = self.d_choi
        return hermitize((self.transfer @ m.ravel()).reshape(dc, dc))

    def dual(self, x: np.ndarray) -> np.ndarray:
        """Adjoint map on Choi-space observables, vec(Lambda*(X)) = S^dag vec(X).

        ``x`` is one (d_choi, d_choi) observable or a stack of shape
        (k, d_choi, d_choi); the result has the matching shape over d_prog.
        """
        x = np.asarray(x, dtype=complex)
        dc, dp = self.d_choi, self.d_prog
        if x.shape[-2:] != (dc, dc) or x.ndim not in (2, 3):
            raise ValueError(
                f"ProcessorMap {self.label!r}: observable shape {x.shape}, "
                f"expected ([k,] {dc}, {dc})"
            )
        # X S^* = (X^* S)^*, which spares a conjugated copy of S per call
        flat = np.conj(x.reshape(-1, dc * dc).conj() @ self.transfer)
        return flat.reshape(x.shape[:-2] + (dp, dp))


def _transfer_from_kraus(kraus: np.ndarray) -> np.ndarray:
    """Transfer matrix sum_k K_k (x) K_k^* of a stack of Kraus operators (n, d_c, d_p)."""
    _, dc, dp = kraus.shape
    return np.einsum("kij,kmn->imjn", kraus, kraus.conj(),
                     optimize=True).reshape(dc * dc, dp * dp)


# --- teleportation ----------------------------------------------------------


def teleportation_processor(d: int = 2) -> ProcessorMap:
    """Teleportation over an arbitrary two-qudit program.

    The map conjugates the program with (W_i^* (x) W_i)/d for the d^2
    teleportation unitaries; it is self-dual.
    """
    if d > TELEPORTATION_MAX_D:
        raise CapacityError(
            f"teleportation_processor: d = {d} exceeds cap {TELEPORTATION_MAX_D}"
        )
    ws = weyl_unitaries(d)
    kraus = np.stack([np.kron(w.conj(), w) / d for w in ws])
    return ProcessorMap(_transfer_from_kraus(kraus), d_prog=d * d, d_in=d, d_out=d,
                        label=f"teleportation[d={d}]")


# --- port-based teleportation ----------------------------------------------


def _entangled_pair(d: int, singlet: bool) -> np.ndarray:
    if singlet:
        if d != 2:
            raise ValueError("singlet PBT variant is defined for qubits only")
        v = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
        return np.outer(v, v.conj())
    return max_entangled(d).matrix


def pbt_povm(n_ports: int, d: int = 2, singlet: bool = False) -> list:
    """Square-root-measurement POVM on (A_1..A_N, C), one element per port.

    N = 1 is the trivial protocol and returns [identity].  With
    ``singlet=True`` the pair state defining the measurement is the singlet
    instead of the maximally entangled state (qubits only).
    """
    if n_ports < 1:
        raise ValueError(f"pbt_povm: need N >= 1, got {n_ports}")
    if d < 2:
        raise ValueError(f"pbt_povm: need d >= 2, got {d}")
    dims = [d] * n_ports + [d]
    dtot = d ** (n_ports + 1)
    if n_ports == 1:
        return [np.eye(dtot, dtype=complex)]
    pair = _entangled_pair(d, singlet)
    projs = [embed_operator(pair, dims, targets=[i, n_ports]) for i in range(n_ports)]
    sigma = sum(projs)
    s_inv_half = matrix_inv_sqrt(sigma)
    tilded = [hermitize(s_inv_half @ p @ s_inv_half) for p in projs]
    gap = (np.eye(dtot) - sum(tilded)) / n_ports
    return [hermitize(t + gap) for t in tilded]


def _pbt_full_transfer(n_ports: int, d: int, povm: list) -> np.ndarray:
    """Transfer matrix S[(r, c), (m, n)] of the full PBT program-to-Choi map.

    Program basis indices m, n run over the interleaved (A_1, B_1, ...)
    ordering.
    """
    n = n_ports
    dn = d**n
    dp = d ** (2 * n)
    dc = d * d
    out = np.zeros((d, d, d, d) + (dn,) + (d,) * n + (dn,) + (d,) * n, dtype=complex)
    eye = np.eye(d)
    # integer einsum labels: 0..3 = p, b, q, c; 4 = mA; 5..4+N = mb_k;
    # 5+N = nA; 6+N..5+2N = nb_k
    l_p, l_b, l_q, l_c, l_ma = 0, 1, 2, 3, 4
    l_mb = [5 + k for k in range(n)]
    l_na = 5 + n
    l_nb = [6 + n + k for k in range(n)]
    out_legs = [l_p, l_b, l_q, l_c, l_ma] + l_mb + [l_na] + l_nb
    for i, pi_op in enumerate(povm):
        p4 = pi_op.reshape(dn, d, dn, d)  # legs (row A, row C, col A, col C)
        # out[p,b,q,c, mA, mb_1..mb_N, nA, nb_1..nb_N] +=
        #   (1/d) P[nA, q, mA, p] delta(mb_i, b) delta(nb_i, c) prod_{k != i} delta(mb_k, nb_k)
        operands = [p4, [l_na, l_q, l_ma, l_p]]
        operands += [eye, [l_mb[i], l_b], eye, [l_nb[i], l_c]]
        for k in range(n):
            if k != i:
                operands += [eye, [l_mb[k], l_nb[k]]]
        out += np.einsum(*operands, out_legs) / d
    # split the composite A legs and interleave with the B legs
    out = out.reshape((d, d, d, d) + (d,) * (4 * n))
    base = 4
    m_order = []
    for i in range(n):
        m_order.extend([base + i, base + n + i])
    n_order = []
    for i in range(n):
        n_order.extend([base + 2 * n + i, base + 3 * n + i])
    out = out.transpose([0, 1, 2, 3] + m_order + n_order)
    return out.reshape(dc * dc, dp * dp)


def pbt_processor(n_ports: int, d: int = 2, singlet: bool = False) -> ProcessorMap:
    """Full port-based-teleportation processor on a d^(2N) program space."""
    d_prog = d ** (2 * n_ports)
    if d_prog > PBT_FULL_MAX_PROG_DIM:
        raise CapacityError(
            f"pbt_processor: program dim {d_prog} exceeds cap {PBT_FULL_MAX_PROG_DIM} "
            f"(use pbt_reduced_map for larger N)"
        )
    transfer = _pbt_full_transfer(n_ports, d, pbt_povm(n_ports, d, singlet))
    return ProcessorMap(transfer, d_prog=d_prog, d_in=d, d_out=d,
                        label=f"pbt[N={n_ports},d={d}]")


def _add_box(shape: tuple) -> list:
    """The Young diagrams made from ``shape`` (non-increasing rows) by adding one box."""
    return [shape[:i] + (r + 1,) + shape[i + 1:] for i, r in enumerate(shape + (0,))
            if i == 0 or shape[i - 1] > r]


def _isotypic_dim(shape: tuple, d: int) -> int:
    """Size m k of its block of (C^d)^(tensor n): m = prod(d + j - i) / H, k = n! / H (hooks H)."""
    hooks = contents = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= row - j + sum(1 for r in shape[i + 1:] if r > j)
            contents *= d + j - i
    return (contents // hooks) * (math.factorial(sum(shape)) // hooks)


def _pbt_fidelity(n_ports: int, d: int) -> float:
    """PBT entanglement fidelity F = d^-(N+2) sum_{alpha |- N-1} (sum_{mu = alpha + box}
    sqrt(m_mu k_mu))^2, each square summed as sum x + 2 sum_{mu < nu} sqrt(x_mu x_nu)."""
    shapes = {()}
    for _ in range(n_ports - 1):  # grow every alpha |- N - 1 box by box
        shapes = {mu for alpha in shapes for mu in _add_box(alpha)}
    total = 0.0
    for alpha in sorted(shapes):
        xs = [_isotypic_dim(mu, d) for mu in _add_box(alpha)]
        total += sum(xs) + 2.0 * sum(math.sqrt(a * b) for a, b in itertools.combinations(xs, 2))
    return total / d ** (n_ports + 2)


def pbt_reduced_map(n_ports: int, d: int = 2, singlet: bool = False) -> ProcessorMap:
    """PBT restricted to programs chi^(tensor N): a map on one Choi block.

    For every single-port Choi matrix chi (Tr_out chi = I/d) the output
    equals ``pbt_processor(N, d).apply_matrix(chi^(tensor N))``.  The map is CPTP on
    the whole d^2 space, but only Choi-constrained programs correspond to
    actual PBT resource states.  It needs only p = Tr_{A_2..A_N} Pi_1 on (A_1, C),
    which is U (x) U^* invariant: alpha I + beta Phi+ (Phi+ = sum_ij |ii><jj|, under
    I (x) Y on C for the singlet), with Tr p = d^(N+1)/N, Tr(p Phi+) = d^(N+2) F / N.
    """
    if n_ports < 1 or d < 2:
        raise ValueError(f"pbt_reduced_map: need N >= 1 and d >= 2, got N={n_ports}, d={d}")
    if n_ports > PBT_REDUCED_MAX_PORTS:
        raise CapacityError(
            f"pbt_reduced_map: N = {n_ports} exceeds cap {PBT_REDUCED_MAX_PORTS}"
        )
    beta = (d ** (n_ports + 2) * _pbt_fidelity(n_ports, d) - d**n_ports) / (n_ports * (d * d - 1))
    alpha = d ** (n_ports - 1) / n_ports - beta / d
    reduced = alpha * np.eye(d * d) + beta * d * _entangled_pair(d, singlet)
    p4 = reduced.reshape(d, d, d, d)  # legs (row a, row C, col a, col C)
    eye = np.eye(d)
    coef = n_ports / d**n_ports
    transfer = coef * np.einsum("uqvp,yb,zc->pbqcvyuz", p4, eye, eye).reshape(d**4, d**4)
    return ProcessorMap(transfer, d_prog=d * d, d_in=d, d_out=d,
                        label=f"pbt_reduced[N={n_ports},d={d}]",
                        program_domain="choi")


def symmetric_param_count(n_ports: int, d: int = 2) -> int:
    """Number of free parameters of a port-symmetric PBT program."""
    if n_ports < 1:
        raise ValueError(f"symmetric_param_count: need N >= 1, got {n_ports}")
    k = d**4 - 1
    return math.comb(n_ports + k, k)


# --- parametric-circuit processors ------------------------------------------

def default_pqc_hamiltonians() -> tuple:
    """The pair of universal two-qubit generators used for benchmarking."""
    h0 = math.sqrt(2.0) * (np.kron(_X, _Y) - np.kron(_Y, _X))
    h1 = np.kron(
        math.sqrt(2.0) * _Z + math.sqrt(3.0) * _Y + math.sqrt(5.0) * _X,
        _Y + math.sqrt(2.0) * _Z,
    )
    return h0, h1


def amplitude_damping_hamiltonian(p: float) -> np.ndarray:
    """Generator whose exponential is a Stinespring unitary of damping p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"amplitude_damping_hamiltonian: p={p} outside [0, 1]")
    return (math.asin(math.sqrt(p)) / 2.0) * (np.kron(_Y, _X) - np.kron(_X, _Y))


def _conditional_gate(h0: np.ndarray, h1: np.ndarray, reg_dim: int) -> np.ndarray:
    """exp(i h0 (x) |0><0| + i h1 (x) |1><1|) on (A, R0, R_j).

    With reg_dim = 3, the |2> sector evolves trivially (zero generator).
    """
    p0 = np.zeros((reg_dim, reg_dim), dtype=complex)
    p1 = np.zeros((reg_dim, reg_dim), dtype=complex)
    p0[0, 0] = 1.0
    p1[1, 1] = 1.0
    heff = np.kron(h0, p0) + np.kron(h1, p1)
    return matrix_function(heff, lambda x: np.exp(1j * x))


def _circuit_processor(kind: str, n_gates: int, cap: int, h0, h1,
                       reg_dim: int) -> ProcessorMap:
    """Shared constructor of ``pqc_processor`` (reg_dim 2) and
    ``mpqc_processor`` (reg_dim 3): checks N, fills in the default
    Hamiltonians and builds the transfer matrix."""
    if n_gates < 1:
        raise ValueError(f"{kind}_processor: need N >= 1, got {n_gates}")
    if n_gates > cap:
        raise CapacityError(f"{kind}_processor: N = {n_gates} exceeds cap {cap}")
    if h0 is None or h1 is None:
        d0, d1 = default_pqc_hamiltonians()
        h0 = d0 if h0 is None else h0
        h1 = d1 if h1 is None else h1
    h0 = np.asarray(h0, dtype=complex)
    h1 = np.asarray(h1, dtype=complex)
    if h0.shape != h1.shape or h0.ndim != 2 or h0.shape[0] != h0.shape[1]:
        raise ValueError("circuit processor: H0 and H1 must be square and same shape")
    if h0.shape[0] % 2:
        raise ValueError("circuit processor: Hamiltonians must act on A (x) R0 with a qubit R0")
    d_a = h0.shape[0] // 2
    dims = [d_a, 2] + [reg_dim] * n_gates  # (A, R0, R_1..R_N)
    d_reg = 2 * reg_dim**n_gates
    gate = _conditional_gate(h0, h1, reg_dim)
    u_hat = np.eye(d_a * d_reg, dtype=complex)
    for j in range(1, n_gates + 1):
        u_j = embed_operator(gate, dims, targets=[0, 1, 1 + j])
        u_hat = u_j @ u_hat  # gate 1 applied first
    u4 = u_hat.reshape(d_a, d_reg, d_a, d_reg)
    # K_m[(b, a'), r] = U[(a', m), (b, r)] / sqrt(d_A), Choi ordered (B, A)
    kraus = u4.transpose(1, 2, 0, 3).reshape(d_reg, d_a * d_a, d_reg) / math.sqrt(d_a)
    return ProcessorMap(_transfer_from_kraus(kraus), d_prog=d_reg,
                        d_in=d_a, d_out=d_a, label=f"{kind}[N={n_gates}]")


def pqc_processor(n_gates: int, h0: Optional[np.ndarray] = None,
                  h1: Optional[np.ndarray] = None) -> ProcessorMap:
    """Conditioned-Hamiltonian circuit processor with N qubit registers.

    The program lives on (R_0, R_1, ..., R_N); register R_j selects whether
    gate j applies exp(i H0) or exp(i H1) to (A, R_0).  Gates are applied in
    increasing j order.
    """
    return _circuit_processor("pqc", n_gates, PQC_MAX_GATES, h0, h1, 2)


def mpqc_processor(n_gates: int, h0: Optional[np.ndarray] = None,
                   h1: Optional[np.ndarray] = None) -> ProcessorMap:
    """Monotonic circuit processor: qutrit registers, |2> enacts the identity.

    Padding a depth-M program with |2><2| registers reproduces the depth-M
    qubit circuit exactly, so the optimized cost never degrades with depth.
    """
    return _circuit_processor("mpqc", n_gates, MPQC_MAX_GATES, h0, h1, 3)
