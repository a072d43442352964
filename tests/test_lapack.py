import numpy as np
import pytest
from scipy import linalg

from fracheat import DomainSpec, _lapack, assemble_operator, build_grid, spectral
from fracheat.spectral import _ground_states, _lanczos_top

BLOCKS = [(DomainSpec.interval(1.0), 1.0 / 64.0, 0.5), (DomainSpec.disk(1.0), 1.0 / 16.0, 1.0)]


def _system(domain, h, alpha):
    """I + L/32 on the block folded by every mirror (on the disk, the square
    group's, weighted by its stabilizers), as a free step would factor it."""
    g = build_grid(domain, h)
    _, B = assemble_operator(g, alpha).fold(np.zeros(g.n))
    return np.eye(len(B)) + B / 32.0


@pytest.mark.parametrize("domain, h, alpha", BLOCKS)
def test_cholesky_matches_scipy(domain, h, alpha):
    A = _system(domain, h, alpha)
    factor, lower = linalg.cho_factor(A)
    ours = _lapack.cholesky(A.copy())
    assert not lower
    # the C lower triangle holds R^T, bit for bit scipy's upper factor R
    assert np.array_equal(np.tril(ours).T, np.triu(factor))
    assert np.array_equal(np.triu(ours, 1), np.triu(A, 1))  # left as it was
    b = np.random.default_rng(1).standard_normal(len(A))
    kept = b.copy()
    np.testing.assert_allclose(_lapack.solve(ours, b), linalg.cho_solve((factor, lower), b), rtol=1e-13)
    assert np.array_equal(b, kept)


def test_cholesky_rejects_what_it_cannot_factor():
    with pytest.raises(np.linalg.LinAlgError, match="info 2"):
        _lapack.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError):
        _lapack.cholesky(np.eye(4)[:, ::2].copy())
    with pytest.raises(ValueError):
        _lapack.cholesky(np.asfortranarray(np.eye(3) + 0.1))
    with pytest.raises(ValueError):
        _lapack.solve(_lapack.cholesky(np.eye(3)), np.ones(4))


@pytest.mark.parametrize("domain, h, alpha", BLOCKS)
@pytest.mark.parametrize("share", [0.0, 0.05, 1.0])
def test_refactor_matches_a_direct_factorization(domain, h, alpha, share):
    # A and the new matrix differ on the trailing r diagonal entries only
    A = _system(domain, h, alpha)
    n = len(A)
    r = round(share * n)
    assert (r > 0) == (share > 0)
    new = A.copy()
    new.flat[(n - r) * (n + 1):: n + 1] += np.linspace(0.5, 2.0, r)
    direct = _lapack.cholesky(new.copy())
    factor = _lapack.cholesky(A.copy())
    kept = factor.copy()
    a22 = new[n - r:, n - r:].copy()
    assert _lapack.refactor(factor, a22) is factor
    low = np.tril(direct)
    assert np.max(np.abs(np.tril(factor) - low)) <= 1e-13 * np.max(np.abs(low))
    assert np.array_equal(factor[: n - r], kept[: n - r])  # the leading rows stay
    assert np.array_equal(factor[:, : n - r], kept[:, : n - r])
    if r == 0:
        assert np.array_equal(factor, kept)
    b = np.random.default_rng(2).standard_normal(n)
    np.testing.assert_allclose(_lapack.solve(factor, b), _lapack.solve(direct, b), rtol=1e-12)


def test_refactor_rejects_what_it_cannot_factor():
    A = _system(DomainSpec.interval(1.0), 1.0 / 64.0, 0.5)
    factor = _lapack.cholesky(A.copy())
    with pytest.raises(np.linalg.LinAlgError):
        _lapack.refactor(factor, A[-3:, -3:] - 10.0 * np.eye(3))
    with pytest.raises(ValueError):
        _lapack.refactor(factor, np.eye(4)[:, ::2].copy())


def _z_matrix(n, seed):
    """A dense symmetric irreducible Z-matrix with a spread spectrum."""
    rng = np.random.default_rng(seed)
    off = -rng.uniform(0.1, 1.0, (n, n))
    B = (off + off.T) / 2.0
    B.flat[:: n + 1] = rng.uniform(0.0, 3.0 * n, n)
    return B, rng.uniform(0.0, 2.0, n)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_lanczos_bottom_spans_small_spaces(n):
    # ncv = 8 vectors span the whole space: one cycle, beta = 0 on its last step
    B, d = _z_matrix(n, n)
    res = _ground_states(B, [d])[0]
    w, vecs = np.linalg.eigh(B - np.diag(d))
    assert res.lambda0 == pytest.approx(w[0], rel=1e-12)
    np.testing.assert_allclose(res.eigvec, vecs[:, 0] * np.sign(vecs[:, 0].sum()), atol=1e-10)
    assert res.iterations <= n


def test_lanczos_bottom_matches_dense_eigh_at_512():
    g = build_grid(DomainSpec.interval(1.0), 1.0 / 512.0)
    orbits, B = assemble_operator(g, 0.5).fold(np.zeros(g.n))
    d = 0.3 / np.abs(g.points[orbits[0], 0]) ** 0.5  # a Hardy-type well
    res = _ground_states(B, [d])[0]
    w, vecs = np.linalg.eigh(B - np.diag(d))
    assert len(B) == 512
    assert res.lambda0 == pytest.approx(w[0], rel=1e-12)
    np.testing.assert_allclose(res.eigvec, vecs[:, 0] * np.sign(vecs[:, 0].sum()), atol=1e-9)
    assert 0 < res.iterations < spectral.LANCZOS_VECTORS * spectral.LANCZOS_RESTARTS


def test_lanczos_restart_cap_reports_solves(monkeypatch):
    monkeypatch.setattr(spectral, "LANCZOS_TOL", 0.0)
    monkeypatch.setattr(spectral, "LANCZOS_RESTARTS", 3)
    B, d = _z_matrix(40, 0)
    with pytest.raises(spectral.ConvergenceFailure) as info:
        _ground_states(B, [d])[0]
    assert info.value.iterations == 3 * spectral.LANCZOS_VECTORS


def _tridiagonals(seed, count=40):
    """Leading blocks of an m x m tridiagonal, m = LANCZOS_VECTORS, as the
    Lanczos iteration passes them: orders 1 to m, diagonals spread from 1e-3
    to 1e6, and off-diagonals of their scale or near 1e-12 of it (a cycle
    close to convergence)."""
    rng = np.random.default_rng(seed)
    m = spectral.LANCZOS_VECTORS
    for i in range(count):
        k = 1 + i % m
        T = np.zeros((m, m))
        d = 10.0 ** rng.uniform(-3.0, 6.0, k)
        e = d[:-1] * rng.uniform(0.1, 1.0, k - 1) * (1e-12 if i % 3 == 0 else 1.0)
        T[range(k), range(k)] = d
        T[range(1, k), range(k - 1)] = T[range(k - 1), range(1, k)] = e
        yield T[:k, :k]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tridiagonal_eigh_is_numpy_eigh_bit_for_bit(seed):
    # one binding, its buffers reused across orders, as within one Lanczos run
    eigh = _lapack.TridiagonalEigh(spectral.LANCZOS_VECTORS)
    for t in _tridiagonals(seed):
        theta, S = eigh(t)
        w, vecs = np.linalg.eigh(t)
        assert np.array_equal(theta, w) and np.array_equal(S, vecs)
        # S[:, -1] @ Q is the Ritz vector: a Fortran-ordered S changed its last bits
        assert S.flags.c_contiguous and S.flags.owndata and theta.flags.owndata


def test_tridiagonal_eigh_rejects_what_it_cannot_diagonalize():
    eigh = _lapack.TridiagonalEigh(4)
    with pytest.raises(np.linalg.LinAlgError, match="stev failed"):
        eigh(np.full((3, 3), np.nan))
    with pytest.raises(ValueError):
        eigh(np.eye(5))  # above the order the buffers hold
    assert np.array_equal(eigh(np.diag([2.0, 1.0]))[0], [1.0, 2.0])  # still usable


def test_lanczos_ritz_failure_is_a_convergence_failure():
    # a NaN operator; a LinAlgError is no FracheatError, so the command line
    # would print a traceback instead of `error: ...`
    with pytest.raises(spectral.ConvergenceFailure, match="Ritz pairs") as info:
        _lanczos_top(lambda b: b * np.nan, np.ones(20))
    assert 0 < info.value.iterations <= spectral.LANCZOS_VECTORS
