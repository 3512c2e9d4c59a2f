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
  Both maps come from one port-by-port transfer (``_port_transfer``): the
  full map routes each of its N POVM elements, the reduced map is the single
  port with element p = alpha I + beta Phi+, scaled by N/d^N.
* ``pqc_processor`` / ``mpqc_processor`` -- conditioned-Hamiltonian circuit
  processors with qubit (resp. qutrit) program registers.

A program is a ``DensityMatrix`` (or its ndarray); ``program_domain`` says
whether it must also be a single-port ``ChoiMatrix``.  PBT programs
interleave port wires as (A_1, B_1, A_2, B_2, ...), so ``chi^(tensor N)`` is
a plain Kronecker power of a Choi matrix.  PQC programs order registers as
(R_0, R_1, ..., R_N).  Choi outputs are always ordered (input copy, output).

Every processor also carries its program symmetry as ``block_coords``:
isometry copies V_c (d_prog x m) per block, with programs pi = sum_blocks
sum_c V_c M V_c^dag losing no output of the map, grouped by block size, and
the block transfer S E.  Both program searches read it: the SDP programs
search the m x m blocks M only, and the first-order methods iterate on them.
``pbt_processor`` has the S_N isotypic blocks of its port relabelings (N=3
qubits: 20, 20 twice, and 4, instead of 64); ``teleportation_processor(d)``
has d^2 one-dimensional Bell blocks (I (x) W_i)|Phi>, since the map sees only
the Bell-diagonal part of the program; ``pqc_processor`` and
``mpqc_processor`` have one 2 x 2 block on R_0 per basis string of R_1..R_N,
since each R_j only controls its gate and is then traced out.  Blocks are
built on first use; ``pbt_reduced_map`` keeps the single block V = I.

``teleportation_processor``, ``pbt_processor`` and ``pbt_reduced_map`` are
built once per process and argument tuple and then shared, so a sweep over
targets reuses one map and its ``block_coords``.  A shared map must not
change, so every ``ProcessorMap`` holds a read-only copy of its transfer and
``block_coords`` a read-only transfer, isometries, copies and counts.  The
size caps bound the cache; keys are typed, so ``pbt_processor(2, 2.0)``
fails as a fresh build does instead of returning ``pbt_processor(2, 2)``.  ``pqc_processor`` and ``mpqc_processor`` take
Hamiltonian arrays, which are no cache keys, and are built on every call.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .channels import _X, _Y, _Z, MatrixLike, as_matrix, max_entangled, weyl_unitaries
from .hermlin import embed_operator, hermitize, matrix_function, matrix_inv_sqrt

__all__ = [
    "CapacityError",
    "ProcessorMap",
    "BlockCoords",
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
    J[(m, r), (n, c)] = S[(r, c), (m, n)].  The map keeps a read-only copy of
    the transfer it is given, so it stays the map that passed these checks.
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
    # program symmetry: a function returning one (copies, d_prog, m) stack of
    # isometries V_c per block, called on the first use of ``block_coords``.
    # The map must not tell a program pi from its block part sum_blocks sum_c
    # V_c M V_c^dag, M = sum_c V_c^dag pi V_c / copies, so both program
    # searches work on M alone; None is the one block V = I.
    symmetry: Optional[Callable[[], tuple]] = None

    def __post_init__(self):
        s = _read_only(np.array(self.transfer, dtype=complex))
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
        j = hermitize(s.reshape(dc, dc, dp, dp).transpose(2, 0, 3, 1).reshape(dp * dc, dp * dc))
        # max diag J <= lambda_max, so a Cholesky factor of J + tau I proves
        # lambda_min > -2 tau >= -1e-8 max(|lambda|_max, 1); only a failed
        # factorization needs the spectrum
        diag = j.diagonal().copy()
        tau = 0.5e-8 * max(float(diag.real.max()), 1.0)
        np.fill_diagonal(j, diag + tau)
        try:
            np.linalg.cholesky(j)
        except np.linalg.LinAlgError:
            np.fill_diagonal(j, diag)
            vals = np.linalg.eigvalsh(j)
            scale = float(np.abs(vals).max())
            if vals[0] < -1e-8 * max(scale, 1.0):
                raise ValueError(
                    f"ProcessorMap {self.label!r}: map is not completely positive "
                    f"(lambda_min = {vals[0]:.3e})"
                ) from None

    @functools.cached_property
    def block_coords(self) -> "BlockCoords":
        """The program's block coordinates and the block transfer S E, built on first
        use and checked to be an orthonormal basis of the program space."""
        return BlockCoords.of(self)

    @property
    def d_choi(self) -> int:
        return self.d_in * self.d_out

    def apply_matrix(self, pi: Union[MatrixLike, list], blocks: bool = False) -> np.ndarray:
        """Raw Choi-space matrix of the simulated channel (no wrapping).

        With ``blocks``, ``pi`` is given in block coordinates (one (nb, m, m)
        stack per size class of ``block_coords``) and the block transfer S E
        maps it, unchecked: the first-order methods' iterates.
        """
        dc = self.d_choi
        if blocks:
            coords = self.block_coords
            vec = pi[0].ravel() if len(pi) == 1 else np.concatenate([p.ravel() for p in pi])
            return hermitize((coords.transfer @ vec).reshape(dc, dc))
        m = as_matrix(pi)
        if m.shape != (self.d_prog, self.d_prog):
            raise ValueError(
                f"ProcessorMap {self.label!r}: program shape {m.shape}, "
                f"expected ({self.d_prog}, {self.d_prog})"
            )
        return hermitize((self.transfer @ m.ravel()).reshape(dc, dc))

    def dual(self, x: np.ndarray, blocks: bool = False) -> Union[np.ndarray, list]:
        """Adjoint map on Choi-space observables, vec(Lambda*(X)) = S^dag vec(X).

        ``x`` is one (d_choi, d_choi) observable or a stack of shape
        (k, d_choi, d_choi); the result has the matching shape over d_prog.
        With ``blocks``, the result is the block part of the Hermitian part
        of Lambda*(X) in block coordinates, one (nb, m, m) stack per size
        class, or (k, nb, m, m) for a stack: M_b = sum_c V_c^dag Lambda*(X)
        V_c / copies, read off (S E)^dag vec(X).
        """
        x = np.asarray(x, dtype=complex)
        dc, dp = self.d_choi, self.d_prog
        if x.shape[-2:] != (dc, dc) or x.ndim not in (2, 3):
            raise ValueError(
                f"ProcessorMap {self.label!r}: observable shape {x.shape}, "
                f"expected ([k,] {dc}, {dc})"
            )
        # X S^* = (X^* S)^*, which spares a conjugated copy of S per call
        if blocks:
            coords = self.block_coords
            flat = np.conj(x.reshape(-1, dc * dc).conj() @ coords.transfer)
            return [hermitize(flat[:, sl].reshape(x.shape[:-2] + shape) / copies)
                    for sl, shape, copies in zip(coords.slices, coords.shapes, coords.copies)]
        flat = np.conj(x.reshape(-1, dc * dc).conj() @ self.transfer)
        return flat.reshape(x.shape[:-2] + (dp, dp))


class BlockCoords(NamedTuple):
    """A processor's programs in block coordinates, the one program-block map
    that both program searches read.

    The blocks of one size m form a class, kept as one (nb, m, m) stack of
    block matrices M_b (``shapes``; classes in order of first appearance in
    ``symmetry``), and the program is pi = sum_b sum_c V_c M_b V_c^dag.
    ``transfer`` is S E, the transfer S times the embedding E of the stacks'
    concatenated row-major vecs into vec(pi), and class k owns its columns
    ``slices[k]``.  ``copies[k]`` holds each block's copy count, shaped
    (nb, 1, 1), and ``counts`` each block eigenvalue's multiplicity in pi, in
    the order of the stacks' eigenvalues.  ``real`` says that S and every V_c
    have no imaginary part.  With the single block V = I, ``transfer`` equals
    S and the coordinates are pi[None], exactly.  Every array is read-only,
    since a processor and its blocks may be shared.
    """

    transfer: np.ndarray
    isometries: tuple  # per class, the blocks' (copies, d_prog, m) stacks
    copies: tuple
    shapes: tuple
    slices: tuple
    counts: np.ndarray
    real: bool

    @classmethod
    def of(cls, proc: "ProcessorMap") -> "BlockCoords":
        dp = proc.d_prog
        blocks = [_read_only(np.array(v))
                  for v in (proc.symmetry() if proc.symmetry else [np.eye(dp)[None]])]
        cols = np.concatenate([np.concatenate(list(v), axis=1) for v in blocks], axis=1)
        if cols.shape != (dp, dp) or np.abs(cols.conj().T @ cols - np.eye(dp)).max() > 1e-10:
            raise ValueError(f"ProcessorMap {proc.label!r}: the program blocks' columns are "
                             f"not an orthonormal basis of the {dp}-dim program space")
        sizes = list(dict.fromkeys(v.shape[2] for v in blocks))
        isometries = tuple(tuple(v for v in blocks if v.shape[2] == m) for m in sizes)
        copies = tuple(_read_only(np.array([float(len(v)) for v in members])[:, None, None])
                       for members in isometries)
        shapes = tuple((len(members), m, m) for members, m in zip(isometries, sizes))
        ends = np.cumsum([nb * m * m for nb, m, _ in shapes]).tolist()
        slices = tuple(slice(e - nb * m * m, e) for e, (nb, m, _) in zip(ends, shapes))
        counts = _read_only(np.concatenate([np.repeat(c.ravel(), m)
                                            for c, m in zip(copies, sizes)]))
        real = not np.any(proc.transfer.imag) and not any(np.any(v.imag) for v in blocks)
        transfer = _read_only(_block_transfer(proc.transfer, dp,
                                              [v for c in isometries for v in c], real))
        return cls(transfer, isometries, copies, shapes, slices, counts, real)

    def embed(self, stacks: list) -> np.ndarray:
        """The program pi = sum_b sum_c V_c M_b V_c^dag of block coordinates."""
        return sum(vc @ mb @ vc.conj().T for stack, members in zip(stacks, self.isometries)
                   for mb, v in zip(stack, members) for vc in v)

    def part(self, pi: np.ndarray) -> list:
        """Block coordinates of the block part of pi, M_b = sum_c V_c^dag pi V_c / copies;
        a (k, d_prog, d_prog) stack gives (k, nb, m, m) stacks."""
        return [np.stack([sum(vc.conj().T @ pi @ vc for vc in v) / len(v) for v in members], -3)
                for members in self.isometries]


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, marked read-only in place."""
    a.flags.writeable = False
    return a


def _block_transfer(s: np.ndarray, dp: int, blocks: list, real: bool) -> np.ndarray:
    """S E, E_b = sum_c V_c (x) V_c^*, so (S E)[r, (k, l)] = sum_c sum_ij S[r, (i, j)]
    V_c[i, k] V_c^*[j, l]; two 2-D products per copy, in real arithmetic when S and
    the blocks are ``real``."""
    if real:
        s, blocks = s.real, [v.real for v in blocks]
    rows = s.shape[0]
    s2 = s.reshape(rows * dp, dp)  # [(r, i), j]
    cols = []
    for v in blocks:
        m = v.shape[2]
        acc = 0
        for vc in v:
            t = (s2 @ vc.conj()).reshape(rows, dp, m).transpose(0, 2, 1)  # [r, l, i]
            acc = acc + (t.reshape(rows * m, dp) @ vc).reshape(rows, m, m)  # [r, l, k]
        cols.append(acc.transpose(0, 2, 1).reshape(rows, m * m))
    return np.concatenate(cols, axis=1).astype(complex)


def _transfer_from_kraus(kraus: np.ndarray) -> np.ndarray:
    """Transfer matrix sum_k K_k (x) K_k^* of a stack of Kraus operators (n, d_c, d_p)."""
    _, dc, dp = kraus.shape
    return np.einsum("kij,kmn->imjn", kraus, kraus.conj(),
                     optimize=True).reshape(dc * dc, dp * dp)


# --- teleportation ----------------------------------------------------------


def teleportation_processor(d: int = 2) -> ProcessorMap:
    """Teleportation over an arbitrary two-qudit program.

    The map conjugates the program with (W_i^* (x) W_i)/d for the d^2
    teleportation unitaries; it is self-dual.  Built once per process and
    ``d``, then shared.
    """
    return _teleportation_processor(d)


@functools.lru_cache(maxsize=None, typed=True)
def _teleportation_processor(d: int) -> ProcessorMap:
    if d > TELEPORTATION_MAX_D:
        raise CapacityError(
            f"teleportation_processor: d = {d} exceeds cap {TELEPORTATION_MAX_D}"
        )
    ws = weyl_unitaries(d)
    kraus = np.stack([np.kron(w.conj(), w) / d for w in ws])
    return ProcessorMap(_transfer_from_kraus(kraus), d_prog=d * d, d_in=d, d_out=d,
                        label=f"teleportation[d={d}]",
                        symmetry=functools.partial(_bell_blocks, d))


def _bell_blocks(d: int) -> tuple:
    """One block per Bell vector (I (x) W_i)|Phi>: each W_j^* (x) W_j is diagonal in
    the Bell basis, and its phases average the off-diagonal Bell entries to zero, so
    the map sees only the program's Bell-diagonal part."""
    phi = np.eye(d).ravel() / math.sqrt(d)
    return tuple((np.kron(np.eye(d), w) @ phi)[None, :, None] for w in weyl_unitaries(d))


# --- port-based teleportation ----------------------------------------------


def pbt_povm(n_ports: int, d: int = 2) -> list:
    """Square-root-measurement POVM on (A_1..A_N, C), one element per port,
    built from the maximally entangled pair state on (A_i, C).

    N = 1 is the trivial protocol and returns [identity].
    """
    if n_ports < 1:
        raise ValueError(f"pbt_povm: need N >= 1, got {n_ports}")
    if d < 2:
        raise ValueError(f"pbt_povm: need d >= 2, got {d}")
    dims = [d] * n_ports + [d]
    dtot = d ** (n_ports + 1)
    if n_ports == 1:
        return [np.eye(dtot, dtype=complex)]
    pair = max_entangled(d).matrix
    projs = [embed_operator(pair, dims, targets=[i, n_ports]) for i in range(n_ports)]
    sigma = sum(projs)
    s_inv_half = matrix_inv_sqrt(sigma)
    tilded = [hermitize(s_inv_half @ p @ s_inv_half) for p in projs]
    gap = (np.eye(dtot) - sum(tilded)) / n_ports
    return [hermitize(t + gap) for t in tilded]


def _port_transfer(elements: list, d: int) -> np.ndarray:
    """Transfer matrix of routing the program's B wires by port measurement.

    ``elements`` are the port elements P_i on (A_1..A_N, C), one per port; the
    result is S[(r, c), (m, n)] = sum_i P_i[nA, q, mA, p] delta(mb_i, b)
    delta(nb_i, c) prod_{k != i} delta(mb_k, nb_k), with r = (p, b), c = (q, c)
    and the program legs m, n interleaved as (A_1, B_1, ..., A_N, B_N).
    """
    n = len(elements)
    units = np.eye(d * d).reshape(d, d, d, d)  # units[b, c] = |b><c|
    out = 0
    for i, el in enumerate(elements):
        # |b><c| on B_i, B_k paired with itself for k != i
        legs_b = np.kron(np.kron(np.eye(d**i), units), np.eye(d ** (n - 1 - i)))
        out = out + np.einsum("NqMp,bcmn->pbqcMmNn", el.reshape(d**n, d, d**n, d), legs_b)
    # legs (p, b, q, c, mA_1..N, mB_1..N, nA_1..N, nB_1..N) -> interleave A_k with B_k
    axes = [0, 1, 2, 3] + [4 + g * n + k for g0 in (0, 2) for k in range(n) for g in (g0, g0 + 1)]
    return out.reshape((d,) * (4 + 4 * n)).transpose(axes).reshape(d**4, d ** (4 * n))


def pbt_processor(n_ports: int, d: int = 2) -> ProcessorMap:
    """Full port-based-teleportation processor on a d^(2N) program space, built
    once per process and (N, d), then shared."""
    return _pbt_processor(n_ports, d)


@functools.lru_cache(maxsize=None, typed=True)
def _pbt_processor(n_ports: int, d: int) -> ProcessorMap:
    d_prog = d ** (2 * n_ports)
    if d_prog > PBT_FULL_MAX_PROG_DIM:
        raise CapacityError(
            f"pbt_processor: program dim {d_prog} exceeds cap {PBT_FULL_MAX_PROG_DIM} "
            f"(use pbt_reduced_map for larger N)"
        )
    return ProcessorMap(_port_transfer(pbt_povm(n_ports, d), d) / d,
                        d_prog=d_prog, d_in=d, d_out=d, label=f"pbt[N={n_ports},d={d}]",
                        symmetry=functools.partial(_port_blocks, n_ports, d * d))


def _tableaux(n: int) -> dict:
    """Standard Young tableaux with n boxes by shape; a tableau lists the
    (row, column) cell of each entry 0..n-1."""
    grown = [((), ())]
    for _ in range(n):
        # the new cell is (row, old row length) of the row where mu outgrows shape
        grown = [(mu, cells + (next((i, r) for i, r in enumerate(shape + (0,)) if mu[i] > r),))
                 for shape, cells in grown for mu in _add_box(shape)]
    out: dict = {}
    for shape, cells in grown:
        out.setdefault(shape, []).append(cells)
    return out


def _orthogonal_form(tabs: list, k: int) -> np.ndarray:
    """Young's orthogonal form of the transposition (k, k+1) on one shape's tableaux:
    rho e_T = e_T / r + sqrt(1 - 1/r^2) e_T', with r the content of k+1 minus that
    of k and T' the tableau with k and k+1 exchanged."""
    index = {t: i for i, t in enumerate(tabs)}
    rho = np.zeros((len(tabs), len(tabs)))
    for i, t in enumerate(tabs):
        (r0, c0), (r1, c1) = t[k], t[k + 1]
        axial = (c1 - r1) - (c0 - r0)
        rho[i, i] = 1.0 / axial
        swapped = t[:k] + (t[k + 1], t[k]) + t[k + 2:]
        if swapped in index:
            rho[index[swapped], i] = math.sqrt(1.0 - 1.0 / axial**2)
    return rho


def _port_blocks(n_ports: int, dim: int) -> tuple:
    """Isotypic blocks of S_N relabeling N ports of dimension ``dim``.

    For the irrep rho of each shape, P_c1 = (k / N!) sum_g rho(g)_c1 U(g),
    with k = dim rho, maps the range of P_11 onto copy c.  V_1 is an
    orthonormal basis of that range and V_c = P_c1 V_1 (Gatermann-Parrilo,
    J. Pure Appl. Algebra 192 (2004)); a shape with more than ``dim`` rows
    has no copy and is left out.
    """
    tabs = _tableaux(n_ports)
    size = dim**n_ports
    swaps = []
    for k in range(n_ports - 1):
        axes = list(range(n_ports))
        axes[k], axes[k + 1] = k + 1, k
        swaps.append(np.eye(size).reshape((dim,) * n_ports + (size,))
                     .transpose(axes + [n_ports]).reshape(size, size))
    forms = {shape: [_orthogonal_form(t, k) for k in range(n_ports - 1)]
             for shape, t in tabs.items()}
    # (U(g), {shape: rho(g)}) for every g; the list grows while it is walked,
    # so the walk closes it under the generators
    group = [(np.eye(size), {shape: np.eye(len(t)) for shape, t in tabs.items()})]
    seen = {group[0][0].tobytes()}
    for u, rho in group:
        for k, swap in enumerate(swaps):
            uk = u @ swap
            if uk.tobytes() not in seen:
                seen.add(uk.tobytes())
                group.append((uk, {shape: r @ forms[shape][k] for shape, r in rho.items()}))
    blocks = []
    for shape, t in tabs.items():
        units = [len(t) / len(group) * sum(rho[shape][c, 0] * u for u, rho in group)
                 for c in range(len(t))]
        vals, vecs = np.linalg.eigh(units[0])
        first = vecs[:, vals > 0.5]
        if first.shape[1]:
            blocks.append(np.stack([p @ first for p in units]))
    return tuple(blocks)


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


def pbt_reduced_map(n_ports: int, d: int = 2) -> ProcessorMap:
    """PBT restricted to programs chi^(tensor N): a map on one Choi block.

    For every single-port Choi matrix chi (Tr_out chi = I/d) the output
    equals ``pbt_processor(N, d).apply_matrix(chi^(tensor N))``.  The map is CPTP on
    the whole d^2 space, but only Choi-constrained programs correspond to
    actual PBT resource states.  It needs only p = Tr_{A_2..A_N} Pi_1 on (A_1, C),
    which is U (x) U^* invariant: alpha I + beta Phi+ (Phi+ = sum_ij |ii><jj|), with
    Tr p = d^(N+1)/N and Tr(p Phi+) = d^(N+2) F / N.  Built once per process
    and (N, d), then shared.
    """
    return _pbt_reduced_map(n_ports, d)


@functools.lru_cache(maxsize=None, typed=True)
def _pbt_reduced_map(n_ports: int, d: int) -> ProcessorMap:
    if n_ports < 1 or d < 2:
        raise ValueError(f"pbt_reduced_map: need N >= 1 and d >= 2, got N={n_ports}, d={d}")
    if n_ports > PBT_REDUCED_MAX_PORTS:
        raise CapacityError(
            f"pbt_reduced_map: N = {n_ports} exceeds cap {PBT_REDUCED_MAX_PORTS}"
        )
    beta = (d ** (n_ports + 2) * _pbt_fidelity(n_ports, d) - d**n_ports) / (n_ports * (d * d - 1))
    alpha = d ** (n_ports - 1) / n_ports - beta / d
    reduced = alpha * np.eye(d * d) + beta * d * max_entangled(d).matrix
    return ProcessorMap(n_ports / d**n_ports * _port_transfer([reduced], d),
                        d_prog=d * d, d_in=d, d_out=d, label=f"pbt_reduced[N={n_ports},d={d}]",
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
                        d_in=d_a, d_out=d_a, label=f"{kind}[N={n_gates}]",
                        symmetry=functools.partial(_register_blocks, reg_dim**n_gates))


def _register_blocks(strings: int) -> tuple:
    """One 2 x 2 block on R_0 per basis string s of R_1..R_N, spanned by |0, s> and
    |1, s>: U = sum_s U_s (x) |s><s| and R_1..R_N are traced out, so the map sees only
    the blocks <s| pi |s> on R_0."""
    eye = np.eye(2 * strings)
    return tuple(eye[:, [s, strings + s]][None] for s in range(strings))


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
