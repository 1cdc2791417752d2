"""Shared numerical oracles and random-input generators for the test suite.

Everything here is deliberately independent of the package internals: finite
differences never call jet code, the brute-force Randers tensors are assembled
from textbook formulas, and random inputs are generated from seeded numpy
Generators so every test run is reproducible.  The one exception is the
reference jet walker, Jet3 arithmetic node by node, and the reference Randers
and Berwald-family profile jets built on it, which the kernels of
``eval_tree`` and of the profile jets must match bit for bit.
"""

from __future__ import annotations

import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from finslerlab.errors import DomainError
from finslerlab.expr import (Binary, Const, ExpressionTree, Node, Pow, ScalarFunction, Var,
                             _check_exponent, eval_value, to_string)
from finslerlab.geometry import MetricSpec, RandersProfile, _family_table
from finslerlab.jets import Jet3, any_true, is_finite

# Central-difference step per total derivative order.  The cubic stencils
# divide by h^3, so the step must grow with the order or roundoff in the
# function values swamps the quotient.
FD_STEPS = {1: 1e-3, 2: 6e-3, 3: 2e-2}

# offsets and weights of the lowest-order centered stencil for d^k/dx^k
_STENCILS = {
    0: ((0,), (1.0,)),
    1: ((-1, 1), (-0.5, 0.5)),
    2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
    3: ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5)),
}


def _fd_partial(fn, r, s, a, b, h):
    """Tensor-product centered stencil for d^a_r d^b_s fn, error O(h^2)."""
    offs_r, w_r = _STENCILS[a]
    offs_s, w_s = _STENCILS[b]
    acc = 0.0
    for i, wi in zip(offs_r, w_r):
        for j, wj in zip(offs_s, w_s):
            acc += wi * wj * fn(r + i * h, s + j * h)
    return acc / h ** (a + b)


def fd_reference_jet(fn, r, s) -> dict:
    """All partials d^a_r d^b_s (a+b <= 3) of fn(r, s) by finite differences.

    Centered stencils have pure even-power error expansions, so Richardson
    extrapolation over h, h/2, h/4 removes the h^2 and h^4 terms jointly
    across both axes, leaving an O(h^6) truncation error.
    """
    out = {(0, 0): fn(r, s)}
    for a in range(4):
        for b in range(4 - a):
            if a + b == 0:
                continue
            h = FD_STEPS[a + b]
            d = [_fd_partial(fn, r, s, a, b, h / 2.0**k) for k in range(3)]
            r1a = (4.0 * d[1] - d[0]) / 3.0
            r1b = (4.0 * d[2] - d[1]) / 3.0
            out[(a, b)] = (16.0 * r1b - r1a) / 15.0
    return out


def tree_point_fn(tree: ExpressionTree):
    """Wrap an (r, s) expression tree as a plain float-valued function."""

    def fn(r: float, s: float) -> float:
        return eval_value(tree, {"r": r, "s": s})

    return fn


# -- the reference jet walker ------------------------------------------------

#: jet arithmetic of each binary operator
_JET_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _eval_jet_node(node: Node, env) -> Jet3:
    """Jet3 arithmetic node by node, post-order, with the domain guards that
    finslerlab.expr.eval_tree's compiled kernels must reproduce bit for bit."""
    try:
        kind = type(node)
        if kind is Binary:
            out = _JET_BINARY[node.op](_eval_jet_node(node.left, env),
                                       _eval_jet_node(node.right, env))
        elif kind is Var:
            return env[node.name]
        elif kind is Const:
            return Jet3.constant(node.value)
        elif kind is Pow:
            a = _eval_jet_node(node.base, env)
            _check_exponent(node.exponent)
            if node.exponent == int(node.exponent):
                out = a.powi(int(node.exponent))
            else:
                out = a.powr(node.exponent)
        else:
            a = _eval_jet_node(node.arg, env)
            out = -a if node.op == "neg" else getattr(a, node.op)()
        if not is_finite(out.c):
            raise DomainError("non-finite result")
        return out
    except DomainError as err:
        if err.subexpr is None:
            err.subexpr = to_string(node)
            err.args = (f"{err.args[0]} in '{err.subexpr}'",)
        raise


def reference_eval_tree(tree: ExpressionTree, env) -> Jet3:
    """eval_tree by walking the tree with Jet3 arithmetic."""
    missing = tree.variables - set(env)
    if missing:
        raise DomainError(f"no value bound for variable(s) {sorted(missing)}")
    return _eval_jet_node(tree.root, env)


# -- reference profile jets: Jet3 arithmetic, as the profile kernels record it ----


def _reference_radial_jet(fn, r, order: int) -> Jet3:
    """fn.jet(r, order), a ScalarFunction's by the reference walker."""
    if isinstance(fn, ScalarFunction):
        return reference_eval_tree(fn.tree, {"r": Jet3.seed(r, dr=1.0, order=order)})
    return fn.jet(r, order)


def reference_randers_jet(profile: RandersProfile, r, s, order: int) -> Jet3:
    """sqrt(f + g s^2) + h s from the radial jets of f, g and h."""
    sj = Jet3.seed(s, ds=1.0, order=order)
    fj, gj, hj = (_reference_radial_jet(x, r, order) for x in (profile.f, profile.g, profile.h))
    return (fj + gj * sj * sj).sqrt() + hj * sj


def reference_family_radial_jets(spec: MetricSpec, r, order: int = 3) -> tuple:
    """r-jets of g = e^{I1}, J and I2: table values, integrand derivatives."""
    c2 = spec.profile.c2
    i1, j, i2 = _family_table(spec).at(r)
    rj = Jet3.seed(r, dr=1.0, order=order)
    c2j = _reference_radial_jet(c2, r, order)
    r3c2 = rj.powi(3) * c2j
    two_over_r = 2.0 / rj
    g_jet = _antiderivative_jet(i1, two_over_r - 4.0 * r3c2, order).exp()
    J_jet = _antiderivative_jet(j, 4.0 * rj * c2j * g_jet, order)
    I2_jet = _antiderivative_jet(i2, two_over_r - 2.0 * r3c2, order)
    return g_jet, J_jet, I2_jet


def _antiderivative_jet(value, integrand: Jet3, order: int) -> Jet3:
    return Jet3.radial([value] + [integrand.d(a, 0) for a in range(order)], order)


def reference_family_jet(spec: MetricSpec, r, s, order: int) -> Jet3:
    """chi(w) sqrt(g + J s^2) e^{-I2}, with the radicand guard."""
    r = np.asarray(r, dtype=float)
    g_jet, J_jet, I2_jet = reference_family_radial_jets(spec, float(r) if r.ndim == 0 else r,
                                                        order)
    sj = Jet3.seed(s, ds=1.0, order=order)
    s2 = sj * sj
    radicand = g_jet + J_jet * s2
    bad = radicand.value <= 0.0
    if any_true(bad):
        i = int(np.argmax(bad))
        rr, vv = np.broadcast_arrays(r, radicand.value)
        raise DomainError(
            f"family radical g + J*s^2 is non-positive at r={float(rr.flat[i])!r} "
            f"(value {float(vv.flat[i])!r})"
        )
    rsqrt = radicand.powr(-0.5)
    chi_jet = reference_eval_tree(spec.profile.chi, {"w": s2 * (rsqrt * rsqrt)})
    return chi_jet * (radicand * rsqrt) * (-I2_jet).exp()


# -- random closed-form expressions ------------------------------------------


def _coef(rng) -> str:
    # limited digits keep the printed corpus readable; range per the contract
    return format(rng.uniform(-2.0, 2.0), ".3f")


def _pos_coef(rng, lo=0.5, hi=2.0) -> str:
    return format(rng.uniform(lo, hi), ".3f")


def _positive_expr(rng, depth: int) -> str:
    """An expression provably positive on the sample box."""
    kind = rng.integers(0, 3)
    if kind == 0 or depth <= 0:
        return f"({_pos_coef(rng)} + {_pos_coef(rng, 0.0, 1.5)}*r^2 + {_pos_coef(rng, 0.0, 1.5)}*s^2)"
    if kind == 1:
        return f"({_pos_coef(rng)} + ({_random_expr(rng, depth - 1)})^2)"
    return f"exp(atan({_random_expr(rng, depth - 1)}))"


def _random_expr(rng, depth: int) -> str:
    if depth <= 0:
        k = rng.integers(0, 3)
        return ("r", "s", _coef(rng))[k]
    k = rng.integers(0, 10)
    if k == 0:
        return f"({_random_expr(rng, depth - 1)} + {_random_expr(rng, depth - 1)})"
    if k == 1:
        return f"({_random_expr(rng, depth - 1)} - {_random_expr(rng, depth - 1)})"
    if k == 2:
        return f"({_random_expr(rng, depth - 1)} * {_random_expr(rng, depth - 1)})"
    if k == 3:
        return f"({_random_expr(rng, depth - 1)} / {_positive_expr(rng, depth - 1)})"
    if k == 4:
        return f"sqrt({_positive_expr(rng, depth - 1)})"
    if k == 5:
        return f"log({_positive_expr(rng, depth - 1)})"
    if k == 6:
        return f"sin({_random_expr(rng, depth - 1)})"
    if k == 7:
        return f"cos({_random_expr(rng, depth - 1)})"
    if k == 8:
        return f"atan({_random_expr(rng, depth - 1)})"
    q = ("2", "3", "-1", "0.5", "-0.5", "1.5")[rng.integers(0, 6)]
    if q in ("2", "3"):
        return f"({_random_expr(rng, depth - 1)})^{q}"
    return f"({_positive_expr(rng, depth - 1)})^{q}"


def random_expression_text(rng, depth: int = 4) -> str:
    return _random_expr(rng, depth)


def sample_points(rng, count: int, r_box=(0.35, 0.85), s_box=(-0.5, 0.5)):
    """Interior (r, s) points with room for the widest FD stencil."""
    r = rng.uniform(*r_box, size=count)
    s = rng.uniform(*s_box, size=count)
    return list(zip(r.tolist(), s.tolist()))


def well_behaved_at(fn, points, cap: float = 6.0) -> bool:
    """True when fn stays finite and bounded over every stencil offset."""
    reach = 2.0 * max(FD_STEPS.values())
    for r, s in points:
        for dr in (-reach, 0.0, reach):
            for ds in (-reach, 0.0, reach):
                try:
                    v = fn(r + dr, s + ds)
                except (DomainError, OverflowError, ZeroDivisionError):
                    return False
                if not np.isfinite(v) or abs(v) > cap:
                    return False
    return True


# -- random linear-algebra inputs --------------------------------------------


def random_orthogonal(rng, n: int) -> np.ndarray:
    """Haar-distributed orthogonal matrix via sign-fixed QR."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_xy(rng, n: int, r_range, s_frac_max: float = 0.9):
    """A point (x, y) in R^n x R^n with |x| in r_range and |s| <= s_frac_max*r."""
    lo, hi = r_range
    r = float(rng.uniform(lo, hi))
    x = rng.standard_normal(n)
    x *= r / np.linalg.norm(x)
    y = rng.standard_normal(n)
    y /= np.linalg.norm(y)
    # resample directions whose s-fraction falls outside the admissible band
    while abs(float(np.dot(x, y)) / r) > s_frac_max:
        y = rng.standard_normal(n)
        y /= np.linalg.norm(y)
    return x, y * float(rng.uniform(0.5, 2.0))


# -- brute-force Randers tensors ---------------------------------------------


def riemann_matrix(f, g, x: np.ndarray) -> np.ndarray:
    """a_ij = f(r) delta_ij + g(r) x_i x_j."""
    r = float(np.linalg.norm(x))
    return float(f.value(r)) * np.eye(x.size) + float(g.value(r)) * np.outer(x, x)


def randers_metric_tensor(f, g, h, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Fundamental tensor of F = alpha + beta from the textbook closed form.

    g_ij = F*(a_ij/alpha - (ay)_i (ay)_j / alpha^3) + l_i l_j with
    l_i = (ay)_i/alpha + b_i; independent of the phi(r, s) pipeline.
    """
    r = float(np.linalg.norm(x))
    a = riemann_matrix(f, g, x)
    b = float(h.value(r)) * x
    ay = a @ y
    alpha = float(np.sqrt(y @ ay))
    beta = float(b @ y)
    big_f = alpha + beta
    ell = ay / alpha + b
    return big_f * (a / alpha - np.outer(ay, ay) / alpha**3) + np.outer(ell, ell)


def fd_christoffel(f, g, x: np.ndarray, h_step: float = 1e-3) -> np.ndarray:
    """Levi-Civita Gamma^k_{ij} of a_ij by Richardson-extrapolated differences."""

    def da(k, step):
        e = np.zeros_like(x)
        e[k] = step
        return (riemann_matrix(f, g, x + e) - riemann_matrix(f, g, x - e)) / (2.0 * step)

    n = x.size
    pa = np.empty((n, n, n))  # pa[k] = d a_ij / d x_k
    for k in range(n):
        c1 = da(k, h_step)
        c2 = da(k, 0.5 * h_step)
        pa[k] = (4.0 * c2 - c1) / 3.0
    a_inv = np.linalg.inv(riemann_matrix(f, g, x))
    gamma = np.empty((n, n, n))  # gamma[k][i][j] = Gamma^k_{ij}
    for i in range(n):
        for j in range(n):
            lower = 0.5 * (pa[i, j, :] + pa[j, i, :] - pa[:, i, j])
            gamma[:, i, j] = a_inv @ lower
    return gamma


def fd_covariant_b(f, g, h, x: np.ndarray, h_step: float = 1e-3) -> np.ndarray:
    """b_{i;j} = d_j b_i - Gamma^k_{ij} b_k with b_i = h(r) x_i, by differences."""

    def bvec(z):
        return float(h.value(float(np.linalg.norm(z)))) * z

    n = x.size
    db = np.empty((n, n))  # db[i][j] = d b_i / d x_j
    for j in range(n):
        e = np.zeros(n)
        e[j] = h_step
        c1 = (bvec(x + e) - bvec(x - e)) / (2.0 * h_step)
        e[j] = 0.5 * h_step
        c2 = (bvec(x + e) - bvec(x - e)) / h_step
        db[:, j] = (4.0 * c2 - c1) / 3.0
    gamma = fd_christoffel(f, g, x, h_step)
    b = bvec(x)
    return db - np.einsum("kij,k->ij", gamma, b)


# -- random admissible Randers triples ---------------------------------------


def random_randers_texts(rng, r_range=(0.15, 1.0)):
    """Expression strings (f, g, h) admissible on r_range, by rejection."""
    lo, hi = r_range
    grid = np.linspace(lo, hi, 64)
    while True:
        a0, a1 = rng.uniform(0.6, 1.8), rng.uniform(0.0, 0.8)
        b0, b1 = rng.uniform(-0.3, 1.0), rng.uniform(-0.4, 0.8)
        c0, c1 = rng.uniform(-0.5, 0.5), rng.uniform(-0.4, 0.4)
        f = a0 + a1 * grid**2
        g = b0 + b1 * grid**2
        h = c0 + c1 * grid**2
        margin = f + grid**2 * (g - h * h)
        if np.min(f) > 0.05 and np.min(margin) > 0.05:
            fmt = lambda u, v: f"{format(u, '.4f')} + {format(v, '.4f')}*r^2"
            return fmt(a0, a1), fmt(b0, b1), fmt(c0, c1)


def dispatched_simd_targets() -> list:
    """numpy's runtime-dispatched SIMD targets that this CPU supports."""
    try:
        info = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 has no dict form and reports nothing here
        return []
    return info["SIMD Extensions"].get("found", [])


def _stdout_under(script: str, name: str, values) -> list:
    """Stdout of ``python -c script`` with the environment variable name unset
    for an empty value, else set to the value, for each value.

    The child imports the package from this checkout's ``src``.
    """
    root = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != name}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    outputs = []
    for value in values:
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**env, name: value} if value else env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    return outputs


def stdout_with_and_without_simd(script: str) -> list:
    """Stdout of ``python -c script`` with every dispatched SIMD target on, then all off."""
    return _stdout_under(script, "NPY_DISABLE_CPU_FEATURES",
                         ("", " ".join(dispatched_simd_targets())))


def stdout_under_blas_cores(script: str, cores=("Haswell",)) -> list:
    """Stdout of ``python -c script`` with the OpenBLAS kernel it picks for this CPU,
    then with each of the named cores (``OPENBLAS_CORETYPE``)."""
    return _stdout_under(script, "OPENBLAS_CORETYPE", ("", *cores))


# A construct section per family that builds and passes its node audits.
CONSTRUCT_INPUTS = {
    "berwald": {"c2": "0.1", "chi": "1 + w/4", "r0": 1.0, "domain": [0.85, 1.15]},
    "randers-bh": {"f": "1 + 0.3*r^2", "h": "0.4", "g_at_r0": 0.8, "r_range": [0.3, 0.9],
                   "steps": 400, "r0": 0.6},
    "randers-ht": {"c_const": 1.0, "g": "0", "h_at_r0": 0.5, "r_range": [1.0, 2.5],
                   "steps": 600},
}
