"""Potential families, truncation, and sharp Hardy constants.

A potential is specified analytically (PotentialSpec) and sampled onto a grid
as a read-only array of node values.  Sampling always produces finite
nonnegative values because grid nodes avoid the singular loci by
construction.  Truncation at level k replaces V by min(V, k) pointwise, the
approximation that makes the evolved problems well posed one level at a time.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass

import numpy as np

from .assembly import check_order
from .errors import DomainError, SingularNode
from .geometry import Grid, boundary_distance

_KINDS = ("hardy_interior", "hardy_boundary", "bounded")


def hardy_sharp_constant(d: int, alpha: float) -> float:
    """Sharp coupling 2^alpha * Gamma^2((d+alpha)/4) / Gamma^2((d-alpha)/4)
    separating existence from blow-up for the interior potential c/|x|^alpha."""
    check_order(d, alpha)
    return 2.0 ** alpha * math.gamma((d + alpha) / 4.0) ** 2 / math.gamma((d - alpha) / 4.0) ** 2


@dataclass(frozen=True, eq=False)
class PotentialSpec:
    """Analytic description of a nonnegative potential.

    kinds:
      hardy_interior -- V(x) = coupling / |x|^alpha, singular at the origin
      hardy_boundary -- V(x) = coupling / dist(x, boundary)^alpha
      bounded        -- V(x) = expr evaluated at x (closed-form descriptor)

    epsilon is the scaling reserve used by spectral divergence probes, which
    test the (1 - epsilon)-scaled potential.
    """

    kind: str
    coupling: float = 0.0
    expr: str = ""
    epsilon: float = 0.01

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown potential kind {self.kind!r}")
        if self.coupling < 0:
            raise DomainError("potential coupling must be nonnegative")
        if not (0.0 <= self.epsilon < 1.0):
            raise DomainError(f"epsilon must lie in [0, 1), got {self.epsilon}")

    @staticmethod
    def hardy_interior(coupling: float, epsilon: float = 0.01) -> "PotentialSpec":
        return PotentialSpec("hardy_interior", coupling=float(coupling), epsilon=epsilon)

    @staticmethod
    def hardy_boundary(coupling: float, epsilon: float = 0.01) -> "PotentialSpec":
        return PotentialSpec("hardy_boundary", coupling=float(coupling), epsilon=epsilon)

    @staticmethod
    def bounded(expr: str, epsilon: float = 0.01) -> "PotentialSpec":
        return PotentialSpec("bounded", expr=expr, epsilon=epsilon)

    def label(self) -> str:
        if self.kind == "hardy_interior":
            return f"hardy_interior(c={self.coupling:.6g})"
        if self.kind == "hardy_boundary":
            return f"hardy_boundary(kappa={self.coupling:.6g})"
        return f"bounded({self.expr})"

    def boundary_theory_holds(self, d: int, alpha: float) -> bool:
        """Whether the boundary Hardy inequality backing hardy_boundary is
        available: d >= 2 and alpha != 1.  Other kinds are unrestricted."""
        if self.kind != "hardy_boundary":
            return True
        return d >= 2 and alpha != 1.0


_EXPR_NAMES = {
    "abs": np.abs,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "tanh": np.tanh,
    "minimum": np.minimum,
    "maximum": np.maximum,
    "where": np.where,
    "pi": np.pi,
}


_GRAMMAR = (
    ast.Expression, ast.Constant, ast.Name, ast.Load, ast.Call, ast.UnaryOp, ast.BinOp,
    ast.UAdd, ast.USub, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
)


def parse_bounded_expr(expr, dimension: int) -> ast.Expression:
    """Parse a bounded-potential expression and check its grammar.

    Allowed: numeric constants, the variables x, r (and y when d = 2), the
    names in _EXPR_NAMES, unary and binary arithmetic, and calls of the
    functions in _EXPR_NAMES.  Anything else (attributes, subscripts,
    comparisons, keywords, other names) raises DomainError, so an expression
    can reach nothing but these values.  Integer constants become floats, so
    a constant power tower overflows at once instead of being evaluated
    exactly; an integer too large for a float is a DomainError.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except (SyntaxError, TypeError) as exc:
        raise DomainError(f"cannot parse bounded potential expression {expr!r}: {exc}")
    names = {"x", "r", "y"} if dimension == 2 else {"x", "r"}
    for node in ast.walk(tree):
        if (
            not isinstance(node, _GRAMMAR)
            or (isinstance(node, ast.Constant) and type(node.value) not in (int, float))
            or (isinstance(node, ast.Name) and node.id not in names | _EXPR_NAMES.keys())
            or (isinstance(node, ast.Call) and (
                node.keywords or not callable(_EXPR_NAMES.get(getattr(node.func, "id", None)))
            ))
        ):
            raise DomainError(
                f"bounded potential expression {expr!r}: {ast.unparse(node)} is not allowed"
            )
        if isinstance(node, ast.Constant) and type(node.value) is int:
            try:
                node.value = float(node.value)
            except OverflowError:
                raise DomainError(
                    f"bounded potential expression {expr!r}: constant too large for a float"
                )
    return tree


def _eval_bounded_expr(expr: str, grid: Grid) -> np.ndarray:
    code = compile(parse_bounded_expr(expr, grid.dimension), "<bounded potential>", "eval")
    names = dict(_EXPR_NAMES)
    names["x"] = grid.points[:, 0]
    names["r"] = np.linalg.norm(grid.points, axis=1)
    if grid.dimension == 2:
        names["y"] = grid.points[:, 1]
    try:
        # overflow is left to sample_potential's non-finite check to report
        with np.errstate(all="ignore"):
            vals = eval(code, {"__builtins__": {}}, names)  # noqa: S307 - grammar checked above
        vals = np.asarray(vals, dtype=float)
    except Exception as exc:
        raise DomainError(f"cannot evaluate bounded potential expression {expr!r}: {exc}")
    return np.broadcast_to(vals, (grid.n,)).copy()


def sample_potential(spec: PotentialSpec, grid: Grid, alpha: float) -> np.ndarray:
    """Evaluate the potential at every node, untruncated: a read-only array.

    The singular families need the form order alpha; bounded ignores it, and
    a bounded V that a mirror g of the grid fixes up to evaluation order
    (0 < max |V - V o g| <= 4 eps max V) becomes (V + V o g) / 2, which g
    fixes exactly, so the fold keeps g.  Raises SingularNode if a node
    coincides with a singularity and DomainError when the spec does not fit
    the grid (origin outside, non-finite values, ...).
    """
    if spec.kind == "hardy_interior":
        if not bool(grid.domain.contains(np.zeros((1, grid.dimension)))[0]):
            raise DomainError("interior Hardy potential needs the origin inside the domain")
        r = np.linalg.norm(grid.points, axis=1)
        if np.any(r == 0.0):
            raise SingularNode("a grid node sits exactly at the origin")
        vals = spec.coupling * r ** -alpha
    elif spec.kind == "hardy_boundary":
        delta = boundary_distance(grid)
        if np.any(delta <= 0.0):
            raise SingularNode("a grid node sits on the boundary")
        vals = spec.coupling * delta ** -alpha
    else:
        vals = _eval_bounded_expr(spec.expr, grid)
    if not np.all(np.isfinite(vals)):
        raise DomainError("potential evaluated to non-finite values")
    if np.any(vals < 0.0):
        raise DomainError("potential must be nonnegative")
    if spec.kind == "bounded":
        for image in grid.mirrors:
            gap = float(np.max(np.abs(vals - vals[image])))
            if 0.0 < gap <= 4.0 * np.finfo(float).eps * float(np.max(vals)):
                vals = 0.5 * (vals + vals[image])
    vals.setflags(write=False)
    return vals


def truncate(values, k: float) -> np.ndarray:
    """Pointwise truncation min(V, k) of the values V, a new read-only
    array: idempotent and monotone in k, and V to the bit when k >= max V.
    Raises ValueError when k is negative or NaN."""
    if not k >= 0:
        raise ValueError(f"truncation level must be nonnegative, got {k}")
    vals = np.minimum(values, k)
    vals.setflags(write=False)
    return vals
