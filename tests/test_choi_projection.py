"""The Euclidean projection onto the single-port Choi set.

``project_to_choi_set`` is checked against Dykstra's alternating scheme
(``oracles.dykstra_choi_projection``) and by a KKT certificate built here
from its output alone: chi >= 0, Tr_out chi = I/d, and
x - chi = -(H (x) I) - S with S >= 0 and S chi = 0 for some Hermitian H.
"""

import numpy as np
import pytest

from qprogopt import optim
from qprogopt.channels import ChoiMatrix
from qprogopt.hermlin import hermitize, partial_trace
from qprogopt.optim import project_to_choi_set
from qprogopt.rand import random_choi

from oracles import dykstra_choi_projection


def _hermitian(d, rng, scale=1.0):
    g = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
    return scale * hermitize(g)


def _kkt_violation(x, chi, d):
    """Largest KKT violation of ``chi`` as the projection of ``x``, relative
    to max(1, ||x||): the multiplier H is fitted from (H (x) I) chi = (chi - x) chi."""
    eye = np.eye(d)
    z = chi - x
    units = np.eye(d * d).reshape(d * d, d, d)
    cols = np.stack([(np.kron(e, eye) @ chi).ravel() for e in units], axis=1)
    h = np.linalg.lstsq(cols, (z @ chi).ravel(), rcond=None)[0].reshape(d, d)
    s = z - np.kron(h, eye)
    marg = partial_trace(chi, [d, d], keep=[0])
    scale = max(1.0, float(np.linalg.norm(x)))
    return max(
        -float(np.linalg.eigvalsh(chi).min()),
        float(np.abs(marg - eye / d).max()),
        float(np.abs(s - s.conj().T).max()) / scale,
        -float(np.linalg.eigvalsh(hermitize(s)).min()) / scale,
        float(np.abs(s @ chi).max()) / scale,
    )


@pytest.mark.parametrize("d,count", [(2, 300), (3, 50)])
def test_matches_dykstra_oracle(d, count):
    rng = np.random.default_rng(500 + d)
    for _ in range(count):
        scale = float(np.exp(rng.uniform(np.log(0.05), np.log(3.0))))
        x = random_choi(d, rng).matrix + _hermitian(d, rng, scale / d)
        got = project_to_choi_set(x, d).matrix
        assert np.abs(got - dykstra_choi_projection(x, d)).max() <= 1e-9


@pytest.mark.parametrize("d", [2, 3])
def test_kkt_certificate(d):
    rng = np.random.default_rng(510 + d)
    for _ in range(20):
        x = random_choi(d, rng).matrix + _hermitian(d, rng, 0.5)
        assert _kkt_violation(x, project_to_choi_set(x, d).matrix, d) <= 1e-9


def _rank_one_negative(d):
    v = np.random.default_rng(520).normal(size=d * d) + 0j
    return -np.outer(v, v)


@pytest.mark.parametrize("name,make", [
    ("minus identity", lambda d: -np.eye(d * d, dtype=complex)),
    ("zero", lambda d: np.zeros((d * d, d * d), dtype=complex)),
    ("rank-one negative", _rank_one_negative),
    ("1e-12 scale", lambda d: _hermitian(d, np.random.default_rng(521), 1e-12)),
])
@pytest.mark.parametrize("d", [2, 3])
def test_adversarial_inputs(name, make, d):
    x = make(d)
    out = project_to_choi_set(x, d)
    assert type(out) is ChoiMatrix
    assert _kkt_violation(x, out.matrix, d) <= 1e-9
    assert np.abs(out.matrix - dykstra_choi_projection(x, d)).max() <= 1e-9
    if name != "rank-one negative":  # a multiple of I, up to 1e-12, projects to I/d^2
        assert np.abs(out.matrix - np.eye(d * d) / (d * d)).max() <= 1e-11


@pytest.mark.parametrize("scale", [1e2, 1e3, 1e4, 1e5, 1e6])
@pytest.mark.parametrize("d", [2, 3])
def test_inputs_of_large_norm(scale, d):
    # Dykstra with an absolute 1e-10 stopping rule failed on these.  The
    # multiplier H grows with ||x|| and the Jacobian's smallest eigenvalues
    # shrink like 1/||x||, so the certificate holds to 1e-8 of ||x|| here.
    rng = np.random.default_rng(530 + d)
    for _ in range(5):
        x = _hermitian(d, rng, scale)
        out = project_to_choi_set(x, d)  # the ChoiMatrix constructor validates it
        assert _kkt_violation(x, out.matrix, d) <= 1e-8


def test_non_convergence_names_the_residual(monkeypatch):
    monkeypatch.setattr(optim, "CHOI_PROJECTION_MAX_ITERS", 1)
    x = _hermitian(2, np.random.default_rng(540), 10.0)
    with pytest.raises(RuntimeError, match=r"no convergence in 1 Newton steps "
                                           r"\(marginal residual \d\.\d+e[-+]\d+\)"):
        project_to_choi_set(x, 2)


def test_rejects_wrong_shape():
    with pytest.raises(ValueError, match="shape"):
        project_to_choi_set(np.eye(3), 2)
