"""The first-order system driving the solvers, and explicit integrators.

The vector field is defined through two alternating strongly convex
subproblems followed by a multiplier residual:

    x' + x = argmin_p  f(p) - <p, A*y> + <p - x, grad h1(x)> + (1/2)|p - x|^2_M1(t)
    z' + z = argmin_q  g(q) + (c(t)/2) |A(x + x') + Bq - b|^2
                       + <q - z, grad h2(z)> + (1/2)|q - z|^2_M2(t)
    y'     = c(t) (b - A(x + x') - B(z + z'))

evaluated strictly in that order (the z subproblem consumes the fresh x).
With unit-step explicit Euler this is exactly the proximal alternating
minimization iteration in :mod:`amaflow.discrete`: both run the step of
:func:`_step` at h = 1, the update of :func:`_kernel`, in the one run loop
of :mod:`amaflow.trajectory`, so the two produce bit-identical numbers.

The update works on trusted float64 arrays and is built once per run: a
schedule is read through :func:`_snapshot`, which gives M1's factor, c, and
either the prox step tau (prox-friendly M2) or M2 as one dense matrix K, and
every product is a ``dot`` with the problem's dense matrices. Runs check
their start state once; the public helpers check what they are given and
then build the same update. Scalar products are written ``array * scalar``,
the same IEEE product as ``scalar * array``, with the scalar a 0-d array.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .errors import CapabilityError, ConditionError, ConvergenceError
from .functions import SeparableFunction
from .linop import as_square, as_vector, sym_eigenvalues
from .problem import PrimalDualState, TwoBlockProblem, _record_every
from .schedules import (
    ConstantDenseMetric,
    CoupledReciprocal,
    ParameterSchedule,
    ProxFriendlyMetric,
    ScaledIdentityMetric,
    ZeroMetric,
    _check_metrics,
    _constant,
)
from .trajectory import DIVERGED_ABOVE, Trajectory, TrajectorySample, _run

__all__ = [
    "Coupling",
    "GammaOutput",
    "TrajectorySample",
    "Trajectory",
    "regularized_argmin",
    "solve_x_subproblem",
    "solve_z_subproblem",
    "alternating_update",
    "gamma",
    "integrate",
]


class GammaOutput:
    """The field value (u, v, w) = (x', z', y') at one (t, state)."""

    __slots__ = ("u", "v", "w")

    def __init__(self, u: np.ndarray, v: np.ndarray, w: np.ndarray):
        self.u, self.v, self.w = u, v, w

    @property
    def norm(self) -> float:
        return math.sqrt(
            float(self.u @ self.u) + float(self.v @ self.v) + float(self.w @ self.w)
        )


def _once(at, read: list):
    """``at``, or, when no schedule in ``read`` (those ``at`` reads) depends on
    t, a function that returns the one tuple ``at(0.0)`` for every t."""
    if not all(map(_constant, read)):
        return at
    params = at(0.0)
    return lambda t: params


def _snapshot(p: TwoBlockProblem, sched: ParameterSchedule):
    """``t -> (mu1, K, c, tau)``: the update's parameters on ``p`` at time t.

    mu1 is M1's factor. With a prox-friendly M2, tau is its step and K is
    None; otherwise tau is None and K is M2(t) as a dense matrix: None for a
    zero M2, and one shared array while M2 is unchanged (a constant dense M2,
    or a scaled identity whose mu(t) keeps its value), so a run builds its
    coupling once. When no schedule read depends on t (constant c, tau as a
    reciprocal of a constant, M1 zero or of constant factor, and so on), the
    snapshot is one tuple, built here. Before any update, the metrics pass
    the validators' check :func:`~amaflow.schedules._check_metrics` and the
    runs' own rule that M1 is zero or a scaled identity
    (:class:`CapabilityError`). Where a prox-friendly M2's c differs from the
    run's, K is its closed form ``Id/tau - c B*B``.
    """
    c_at = sched.c.value_at
    M1, M2 = sched.M1, sched.M2
    _check_metrics(p, M1, M2)
    read = [sched.c]
    if isinstance(M1, ZeroMetric):
        def mu1_at(t):
            return 0.0
    elif isinstance(M1, ScaledIdentityMetric):
        mu1_at = M1.mu.value_at
        read.append(M1.mu)
    else:
        raise CapabilityError("x-subproblem supports only zero or scaled-identity M1")
    if isinstance(M2, ProxFriendlyMetric):
        tau_at = M2.tau.value_at
        read += [M2.tau, M2.c]
        if M2.c is sched.c:
            if type(M2.tau) is CoupledReciprocal and M2.tau.other is sched.c:
                tau_of = M2.tau.of  # tau = k / c: c is read once
                return _once(lambda t: (mu1_at(t), None, c := c_at(t), tau_of(c)), read)
            return _once(lambda t: (mu1_at(t), None, c_at(t), tau_at(t)), read)
        m2_c_at = M2.c.value_at
        last = [None, None]  # (tau(t), M2's c(t)) and its K, rebuilt when they change

        def prox_at(t):
            c, key = c_at(t), (tau_at(t), m2_c_at(t))
            if key[1] == c:
                return mu1_at(t), None, c, key[0]
            if last[0] != key:
                last[:] = key, np.eye(p.dim_z) / key[0] - key[1] * p.btb
            return mu1_at(t), last[1], c, None
        return _once(prox_at, read)
    if isinstance(M2, ZeroMetric):
        return _once(lambda t: (mu1_at(t), None, c_at(t), None), read)
    if isinstance(M2, ConstantDenseMetric):
        K = M2.M
        return _once(lambda t: (mu1_at(t), K, c_at(t), None), read)
    mu_at, eye = M2.mu.value_at, np.eye(M2.dim)  # a scaled identity, the kind left
    read.append(M2.mu)
    last = [None, None]  # mu(t) and its K, rebuilt when the value changes

    def at(t):
        mu = mu_at(t)
        if last[0] != mu:
            last[:] = mu, eye * mu
        return mu1_at(t), last[1], c_at(t), None
    return _once(at, read)


class Coupling(NamedTuple):
    """The z-subproblem's quadratic form ``Q = c B*B + K`` as one dense matrix,
    checked, with its Lipschitz constant and the ``(c, K)`` it was built from."""

    c: float
    K: Optional[np.ndarray]
    Q: np.ndarray
    lip: float


def _lipschitz(Q: np.ndarray, require_uniform: bool) -> float:
    """``|Q| = max |eigenvalue|`` of a symmetric Q, after checking, if so
    required, that Q is uniformly positive: both from one ``eigvalsh``."""
    eig = sym_eigenvalues(Q)
    if require_uniform and eig[0] <= 1e-12:
        raise ConditionError(
            f"subproblem metric not uniformly positive (min eigenvalue {eig[0]:.3e}); "
            "the z-subproblem is not well posed under these schedules"
        )
    return float(max(-eig[0], eig[-1]))


def _coupling(p: TwoBlockProblem, K: Optional[np.ndarray], c: float,
              require_uniform: bool, last: Optional[Coupling] = None) -> Coupling:
    """``c B*B + K`` with its spectral checks; ``last`` is reused as it is when
    it was built from the same ``c`` and the same ``K`` array."""
    if last is not None and last.c == c and last.K is K:
        return last
    Q = p.btb * c if K is None else p.btb * c + K
    return Coupling(c, K, Q, _lipschitz(Q, require_uniform))


def _inner_argmin(fun: SeparableFunction, Q: np.ndarray, lip: float,
                  target: np.ndarray, start: np.ndarray) -> np.ndarray:
    """The proximal-gradient loop for a general Q with Lipschitz constant ``lip``.

    It stops once a step is at most ``1e-10 * max(1, |p|)``, p the new point,
    so iterates of any scale can stop, and fails on a step or point whose norm
    is not finite: past the float range the test would always pass.
    """
    if lip == 0.0:
        return fun._conj_grad(target)
    step = 1.0 / lip
    prox, p = fun._prox_at(step), start
    for k in range(50000):
        p_next = prox(p - (Q.dot(p) - target) * step)
        d = p_next - p
        delta, scale = math.sqrt(d.dot(d)), math.sqrt(p_next.dot(p_next))
        p = p_next
        if not (delta < math.inf and scale < math.inf):
            raise ConvergenceError("inner proximal-gradient step or point not finite")
        if delta <= 1e-10 * max(1.0, scale):
            return p
    raise ConvergenceError("inner proximal-gradient solve did not reach tolerance")


@np.errstate(over="ignore", invalid="ignore")
def regularized_argmin(fun: SeparableFunction, Q: np.ndarray, target,
                       require_uniform: bool = True) -> np.ndarray:
    """``argmin_p  fun(p) + (1/2)<p, Qp> - <target, p>`` for a symmetric PSD
    (n, n) array Q, by the inner proximal-gradient loop from p = 0 (for
    Q = 0, the conjugate gradient of ``fun``); a Q of another size raises
    :class:`~amaflow.errors.DimensionMismatchError`. By default it insists on
    a uniformly positive Q (``require_uniform``), the well-posedness the
    convergence analysis needs. Callers that only need attainment (the
    classic alternating scheme with no regularization) relax it. For
    Q = mu Id the argmin is the single prox ``fun.prox(1/mu, target/mu)``.
    """
    target, Q = as_vector(target, fun.dim, "subproblem target"), as_square(Q, fun.dim, "Q")
    return _inner_argmin(fun, Q, _lipschitz(Q, require_uniform), target, np.zeros(fun.dim))


# The update on trusted arrays, built once per run.

def _blocks(p: TwoBlockProblem, require_uniform: bool = True):
    """``pick(params) -> (x_step, z_step)``, the blocks for a :func:`_snapshot`
    tuple: ``x_step(x, aty)``, f's conjugate gradient for mu1 = 0, else a prox
    of f; ``z_step(z, y, ax, bz)``, a prox of g when tau is given, else the
    inner loop on the coupling, kept while c and K are unchanged. h1, h2 and
    b are read only where they are not zero, and the factors are 0-d arrays:
    a ufunc is faster on one than on a Python float, for the same product."""
    f, g, B, Bt, b = p.f, p.g, p.B.dot, p.Bt.dot, None if p.b_is_zero else p.b
    conj, h1, h2 = f._conj_grad, p._h1_grad, p._h2_grad
    mu1, c, tau = np.zeros(()), np.zeros(()), np.zeros(())
    f_prox = g_prox = cp = None

    def x_conj(x, aty):
        return conj(aty if h1 is None else aty - h1(x))

    def x_prox(x, aty):
        pull = aty if h1 is None else aty - h1(x)
        return f_prox((x * mu1 + pull) / mu1)

    def z_prox(z, y, ax, bz):  # see solve_z_subproblem
        bz = B(z) if bz is None else bz
        v = Bt(y - (ax + bz if b is None else ax + bz - b) * c)
        return g_prox(z + (v if h2 is None else v - h2(z)) * tau)

    def z_general(z, y, ax, bz):  # warm-started at z
        target = Bt(y - (ax if b is None else ax - b) * c)
        target = target if cp.K is None else cp.K.dot(z) + target
        return _inner_argmin(g, cp.Q, cp.lip, target if h2 is None else target - h2(z), z)

    def pick(params):
        nonlocal f_prox, g_prox, cp
        m, K, cv, t = params
        if m < 0.0:
            raise ConditionError(f"subproblem metric has negative factor {m}")
        if m != 0.0:
            f_prox, mu1[()] = f._prox_at(1.0 / m), m
        if t is None:
            cp = _coupling(p, K, cv, require_uniform, cp)
        elif t <= 0.0:
            raise ConditionError(f"prox step tau must be positive, got {t}")
        else:
            g_prox, tau[()] = g._prox_at(t), t
        c[()] = cv
        return x_conj if m == 0.0 else x_prox, z_general if t is None else z_prox
    return pick


def _kernel(p: TwoBlockProblem, snap, require_uniform: bool = True):
    """``update(t, x, z, y, aty, bz, s=None) -> (x+, z+, w, B z+, r, None)``:
    one x-then-z sweep and the multiplier residual on ``p`` at time t, given
    ``A* y`` and ``B z`` when known (else None), with ``r = A x+ + B z+ - b``
    formed once and ``w = -c r``. Its blocks are picked again only when
    ``snap(t)`` is another tuple than the last, so once per run for a constant
    snapshot. It is the unit Euler step of :func:`~amaflow.trajectory._run`."""
    pick = _blocks(p, require_uniform)
    A, B, b = p.A.dot, p.B.dot, None if p.b_is_zero else p.b
    nc = np.zeros(())
    key = x_step = z_step = None

    def update(t, x, z, y, aty, bz, s=None):
        nonlocal key, x_step, z_step
        params = snap(t)
        if params is not key:
            x_step, z_step = pick(params)
            nc[()], key = -params[2], params
        x_new = x_step(x, aty)
        ax = A(x_new)
        z_new = z_step(z, y, ax, bz)
        bz_new = B(z_new)
        r = ax + bz_new if b is None else ax + bz_new - b
        return x_new, z_new, r * nc, bz_new, r, None
    return update


def solve_x_subproblem(p: TwoBlockProblem, mu1: float, x, y) -> np.ndarray:
    """Return the x-block argmin (the new point, not the velocity) for
    M1 = mu1 Id, mu1 >= 0: a single prox of f, or its conjugate gradient for
    mu1 = 0.
    """
    x = as_vector(x, p.dim_x, "x")
    x_step = _blocks(p)((mu1, None, 1.0, 1.0))[0]
    return x_step(x, p.At.dot(as_vector(y, p.dim_y, "y")))


@np.errstate(over="ignore", invalid="ignore")
def solve_z_subproblem(p: TwoBlockProblem, K: Optional[np.ndarray], c_t: float,
                       tau_t: Optional[float], z, y, x_new) -> np.ndarray:
    """Return the z-block argmin given the freshly updated x.

    When ``tau_t`` is supplied the metric is the prox-friendly choice
    M2 = (1/tau) Id - c B*B, so c B*B + M2 collapses to (1/tau) Id and the
    whole update is one prox of tau g at the matrix-free point

        z + tau (B*(y - c (A x_new + B z - b)) - grad h2(z)),

    tau times M2 z + B* y - c B*(A x_new - b) - grad h2(z), with one adjoint.
    This branch never reads ``K`` (it may be None) and takes the metric's c
    and B to be ``c_t`` and ``p.B``: a prox-friendly M2 must share the run's c
    schedule and the problem's B. Otherwise M2 is the (n, n) array ``K``
    (None for M2 = 0; another size raises
    :class:`~amaflow.errors.DimensionMismatchError`), and the quadratic
    coupling Q = c B*B + K is formed as one dense matrix and solved by the
    inner proximal-gradient loop of :func:`regularized_argmin`, warm-started
    at z.
    """
    z = as_vector(z, p.dim_z, "z")
    y = as_vector(y, p.dim_y, "y")
    ax_new = p.A.dot(as_vector(x_new, p.dim_x, "x_new"))
    if K is not None and tau_t is None:
        K = as_square(K, p.dim_z, "M2")
    z_step = _blocks(p)((0.0, K, c_t, tau_t))[1]
    return z_step(z, y, ax_new, None)


def alternating_update(p: TwoBlockProblem, mu1: float, K: Optional[np.ndarray],
                       c: float, tau: Optional[float], x: np.ndarray, z: np.ndarray,
                       y: np.ndarray, require_uniform: bool = True, aty=None,
                       bz=None) -> tuple:
    """One update of :func:`_kernel` on its own, on trusted arrays:
    ``(x+, z+, w, B z+, r)`` for the :func:`_snapshot` tuple
    ``(mu1, K, c, tau)``, given ``A* y`` and ``B z`` when known."""
    params, aty = (mu1, K, c, tau), p.At.dot(y) if aty is None else aty
    return _kernel(p, lambda t: params, require_uniform)(0.0, x, z, y, aty, bz)[:5]


@np.errstate(over="ignore", invalid="ignore")
def gamma(p: TwoBlockProblem, sched: ParameterSchedule, t: float,
          s: PrimalDualState) -> GammaOutput:
    """Evaluate the field at (t, s); zero exactly at saddle points."""
    s = p.state(s.x, s.z, s.y)
    x, z, w = _kernel(p, _snapshot(p, sched))(t, s.x, s.z, s.y, p.At.dot(s.y), None)[:3]
    return GammaOutput(x - s.x, z - s.z, w)


def _step(p: TwoBlockProblem, snap, h: float, method: str = "euler",
          require_uniform: bool = True):
    """The explicit step at size ``h``, a step of :func:`~amaflow.trajectory._run`.
    Unit-step Euler is the update itself, the discrete iteration, whose
    ``B z_new`` and ``r`` serve the next step. Every other step works on the
    stacked state, the last step's or, at the first, a new one: each stage
    writes its field ``(x+ - x, z+ - z, w)`` into a row of its own, Euler
    is ``s + f1 h`` (the blockwise ``x + (x+ - x) h``, ``z + (z+ - z) h``
    and ``y + w h``, bit for bit) and RK4 the classic combination of four
    stages, the first reusing the state's products. The state a step
    returns is a new array, never a stage row."""
    update = _kernel(p, snap, require_uniform)
    if method == "euler" and h == 1.0:
        return update
    a, b, At = p.dim_x, p.dim_x + p.dim_z, p.At.dot
    rows = np.empty((1 if method == "euler" else 4, b + p.dim_y))
    views = [(f, f[:a], f[a:b], f[b:]) for f in rows]  # rewritten by every step
    half = 0.5 * h
    f_half, f_h, two, sixth = (np.array(v) for v in (half, h, 2.0, h / 6.0))
    subtract = np.subtract

    def field(i, t, x, z, y, aty=None, bz=None):
        """Row i, the field ``(x', z', y')`` at time t and a state."""
        f, fx, fz, fy = views[i]
        x_new, z_new, w, _, _, _ = update(t, x, z, y, At(y) if aty is None else aty, bz)
        subtract(x_new, x, fx)
        subtract(z_new, z, fz)
        fy[...] = w
        return f

    def stage(i, t, s):
        return field(i, t, s[:a], s[a:b], s[b:])

    def step(t, x, z, y, aty, bz, s):
        if s is None:
            s = np.concatenate((x, z, y))
        f1 = field(0, t, x, z, y, aty, bz)
        if method == "euler":
            s = s + f1 * f_h
        else:
            f2 = stage(1, t + half, s + f1 * f_half)
            f3 = stage(2, t + half, s + f2 * f_half)
            f4 = stage(3, t + h, s + f3 * f_h)
            s = s + (f1 + f2 * two + f3 * two + f4) * sixth
        return s[:a], s[a:b], None, None, None, s
    return step


def integrate(p: TwoBlockProblem, sched: ParameterSchedule, s0: PrimalDualState,
              method: str = "rk4", h: float = 0.01, T: float = 10.0,
              record_every: int = 1) -> Trajectory:
    """Run an explicit fixed-step integration from t = 0 to t = T.

    Residuals are computed at recorded samples only; their energies are
    :func:`~amaflow.diagnostics.trajectory_energies`'s to compute. The
    dimensions of ``s0`` are checked once, before the first step. The run is
    the solvers' loop with an Euler or RK4 step, and stops as they do: at a
    subproblem failure, with a last sample for the state the failing step
    started from, and at a recorded sample whose feasibility or x-residual is
    NaN or past :data:`~amaflow.trajectory.DIVERGED_ABOVE` (only recorded
    samples are judged, each by the loop's one block, the start state
    included). The trajectory returned carries how the run ended:
    ``status`` ``ok`` when it reached T, else ``error`` or ``diverged`` with
    a ``message`` naming the time it stopped at. Unit-step Euler is the
    solvers' step, so its trajectory is ``prox_ama_run``'s, bit for bit, with
    the same products.
    """
    if method not in ("euler", "rk4"):
        raise ValueError(f"unknown method {method!r}")
    if not 0.0 < h <= 1.0:
        raise ValueError(f"step size must lie in (0, 1], got {h}")
    if not math.isfinite(T):
        raise ValueError(f"horizon must be finite, got {T}")
    if T < h:
        raise ValueError(f"horizon {T} shorter than one step {h}")
    record_every = _record_every(record_every)

    step = _step(p, _snapshot(p, sched), h, method)
    status, k, rec, exc = _run(p, s0, step, h, max(1, int(round(T / h))), record_every)
    if status == "error":
        message = f"integration aborted at t={k * h:.6g}: {exc}"
    elif status == "diverged":
        message = f"integration diverged at t={k * h:.6g}: residual NaN or past {DIVERGED_ABOVE:g}"
    else:
        status, message = "ok", ""
    return rec.trajectory(method, h, T, status, message)
