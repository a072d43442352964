import math
import time

import mpmath
import numpy as np
import pytest
from scipy import linalg

from fracheat import (
    DomainSpec,
    PotentialSpec,
    assemble_operator,
    boundary_distance,
    build_grid,
    estimate_boundary_hardy_constant,
    hardy_sharp_constant,
    sample_potential,
    truncate,
)
from fracheat.errors import DomainError, SingularNode
from fracheat.potentials import parse_bounded_expr


def mp_sharp(d, alpha):
    mpmath.mp.dps = 40
    alpha = mpmath.mpf(alpha)
    return 2 ** alpha * mpmath.gamma((d + alpha) / 4) ** 2 / mpmath.gamma((d - alpha) / 4) ** 2


def test_sharp_constant_values():
    assert hardy_sharp_constant(1, 0.5) == pytest.approx(0.13999967745248262, rel=1e-12)
    assert hardy_sharp_constant(2, 1.0) == pytest.approx(0.22847329052223175, rel=1e-12)
    assert hardy_sharp_constant(1, 0.5) == pytest.approx(float(mp_sharp(1, 0.5)), rel=1e-12)
    assert hardy_sharp_constant(2, 1.0) == pytest.approx(float(mp_sharp(2, 1.0)), rel=1e-12)


def test_sharp_constant_small_alpha_limit():
    # formula tends to 1 as alpha -> 0+
    assert abs(hardy_sharp_constant(2, 0.01) - 1.0) < 0.05


def test_sharp_constant_domain_errors():
    for d, alpha in [(1, 1.2), (2, 2.0), (1, 0.0), (3, 0.5)]:
        with pytest.raises(DomainError):
            hardy_sharp_constant(d, alpha)


def test_hardy_interior_sampling():
    alpha = 0.5
    g = build_grid(DomainSpec.interval(1.0), 0.5)
    fld = sample_potential(PotentialSpec.hardy_interior(0.3), g, alpha)
    r = np.abs(g.points[:, 0])
    np.testing.assert_allclose(fld, 0.3 * r ** -alpha, rtol=1e-14)
    assert fld[1] == pytest.approx(0.3 * 2.0, rel=1e-14)  # |x| = 0.25
    assert np.all(np.isfinite(fld))


def test_hardy_interior_singular_node():
    g = build_grid(DomainSpec.interval(1.0), 2.0 / 3.0)  # contains the origin
    with pytest.raises(SingularNode):
        sample_potential(PotentialSpec.hardy_interior(1.0), g, 0.5)


def test_hardy_boundary_sampling():
    alpha = 0.5
    g = build_grid(DomainSpec.interval(1.0), 0.5)
    fld = sample_potential(PotentialSpec.hardy_boundary(0.7), g, alpha)
    delta = 1.0 - np.abs(g.points[:, 0])
    np.testing.assert_allclose(fld, 0.7 * delta ** -alpha, rtol=1e-14)


def test_boundary_theory_flag():
    spec = PotentialSpec.hardy_boundary(0.5)
    assert not spec.boundary_theory_holds(1, 0.5)
    assert not spec.boundary_theory_holds(2, 1.0)
    assert spec.boundary_theory_holds(2, 0.75)
    assert PotentialSpec.hardy_interior(1.0).boundary_theory_holds(1, 0.5)


def test_bounded_expressions():
    g = build_grid(DomainSpec.interval(1.0), 0.25)
    ones = sample_potential(PotentialSpec.bounded("1"), g, 0.5)
    np.testing.assert_array_equal(ones, np.ones(g.n))
    fld = sample_potential(PotentialSpec.bounded("0.5 + 0.3*cos(3*x)"), g, 0.5)
    np.testing.assert_allclose(fld, 0.5 + 0.3 * np.cos(3 * g.points[:, 0]), rtol=1e-14)
    with pytest.raises(DomainError):
        sample_potential(PotentialSpec.bounded("x"), g, 0.5)  # negative somewhere
    for bad in ("unknown_name", "x +", "().__class__.__mro__[1].__subclasses__().__len__()"):
        with pytest.raises(DomainError):
            sample_potential(PotentialSpec.bounded(bad), g, 0.5)
    # integer constants are floats: a power tower overflows instead of stalling
    start = time.perf_counter()
    with pytest.raises(DomainError, match="cannot evaluate"):
        sample_potential(PotentialSpec.bounded("0.5 + 0*10**10**7"), g, 0.5)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(DomainError, match="too large for a float"):
        parse_bounded_expr("1" + "0" * 400, 1)
    for expr in ("3*x", "x**3", "7//2 + x % 3"):
        np.testing.assert_array_equal(
            sample_potential(PotentialSpec.bounded(f"10 + {expr}"), g, 0.5),
            10 + eval(expr, {"x": g.points[:, 0]}),
        )


def test_sample_potential_returns_a_read_only_float_array():
    g = build_grid(DomainSpec.disk(1.0), 1.0 / 8.0)
    for spec in (PotentialSpec.hardy_interior(0.3), PotentialSpec.hardy_boundary(0.7),
                 PotentialSpec.bounded("0.5 + 0.2*x*y")):
        V = sample_potential(spec, g, 1.0)
        assert type(V) is np.ndarray and V.dtype == np.float64 and V.shape == (g.n,)
        assert not V.flags.writeable
        with pytest.raises(ValueError):
            V[0] = 1.0


def test_bounded_potential_snaps_to_a_mirror_it_fixes_up_to_rounding():
    g = build_grid(DomainSpec.disk(1.0), 1.0 / 24.0)
    diagonal = g.mirrors[-1]  # x1 <-> x2, after the two axis mirrors
    x, y = g.points[:, 0], g.points[:, 1]
    raw = 0.5 + 0.2 * x * y  # (0.2 x) y: the swap keeps it only to the last bit
    assert not np.array_equal(raw[diagonal], raw)
    V = sample_potential(PotentialSpec.bounded("0.5 + 0.2*x*y"), g, 1.0)
    assert np.array_equal(V[diagonal], V)
    assert np.max(np.abs(V - raw)) <= np.spacing(raw.max())
    # x y changes sign under each axis mirror, far beyond rounding: no snap
    assert not any(np.array_equal(V[image], V) for image in g.mirrors[:-1])
    # the singular families are sampled as they are
    r = np.linalg.norm(g.points, axis=1)
    delta = boundary_distance(g)
    assert sample_potential(PotentialSpec.hardy_interior(0.3), g, 1.0).tobytes() == (0.3 * r ** -1.0).tobytes()
    assert sample_potential(PotentialSpec.hardy_boundary(0.7), g, 1.0).tobytes() == (0.7 * delta ** -1.0).tobytes()


def test_truncation_properties():
    g = build_grid(DomainSpec.interval(1.0), 1.0 / 32.0)
    fld = sample_potential(PotentialSpec.hardy_interior(0.3), g, 0.5)

    zero = truncate(fld, 0.0)
    assert np.all(zero == 0.0)

    # a level at or above max V leaves the values bit for bit
    for k in (float(fld.max()), fld.max() + 1.0, math.inf):
        assert truncate(fld, k).tobytes() == fld.tobytes()

    a = truncate(truncate(fld, 2.0), 5.0)
    b = truncate(fld, 2.0)
    np.testing.assert_array_equal(a, b)

    # monotone in k and read-only, and the clipped-node count does not
    # increase with k
    clipped = []
    prev = None
    for k in [0.5, 1.0, 2.0, 4.0]:
        t = truncate(fld, k)
        assert not t.flags.writeable
        if prev is not None:
            assert np.all(t >= prev)
        clipped.append(int(np.sum(fld > k)))
        prev = t
    assert clipped == sorted(clipped, reverse=True)

    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError):
            truncate(fld, bad)


def _operators(domain, alpha, hs):
    return [assemble_operator(build_grid(domain, h), alpha) for h in hs]


def test_boundary_hardy_constant_estimate():
    res = estimate_boundary_hardy_constant(_operators(DomainSpec.interval(1.0), 0.5, [1 / 32, 1 / 64]))
    assert len(res["series"]) == 2
    assert all(v > 0 for _, v in res["series"])
    assert res["estimate"] == res["series"][-1][1]
    # the discrete Rayleigh bound is an infimum over a growing space
    assert res["series"][1][1] <= res["series"][0][1] + 1e-10
    res2d = estimate_boundary_hardy_constant(_operators(DomainSpec.rectangle(1.0, 1.0), 0.5, [0.25]))
    assert res2d["estimate"] > 0


@pytest.mark.parametrize(
    "domain, alpha, h",
    [
        (DomainSpec.interval(1.0), 0.5, 1 / 32),
        (DomainSpec.disk(1.0), 1.0, 1 / 6),
        (DomainSpec.disk(1.0), 1.0, 1 / 12),  # n = 448, folded by the square group to 60 unknowns
    ],
)
def test_boundary_hardy_constant_vs_generalized_eigh(domain, alpha, h):
    grid = build_grid(domain, h)
    op = assemble_operator(grid, alpha)
    res = estimate_boundary_hardy_constant([op])
    weight = np.diag(boundary_distance(grid) ** -alpha)
    mu = linalg.eigh(op.apply(np.eye(op.n)), weight, subset_by_index=[0, 0], eigvals_only=True)[0]
    assert res["estimate"] == pytest.approx(mu, rel=1e-12)


def test_potential_spec_validation():
    with pytest.raises(DomainError):
        PotentialSpec.hardy_interior(-0.1)
    with pytest.raises(DomainError):
        PotentialSpec.hardy_interior(1.0, epsilon=1.0)
    with pytest.raises(DomainError):
        PotentialSpec("weird")
