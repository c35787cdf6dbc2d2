"""The bundled two-dimensional worked example.

A quadratic-plus-l1 instance with a known solution at the origin:

    minimize  (1/2)|x - (1, 0)|^2 + |z|_1   subject to  A x + B z = 0

with A = [[2, 1], [-2, 1]] / sqrt(8) and B = [[-3, 0], [4, 0]] / 5, both of
unit operator norm. The optimal primal blocks are x* = z* = (0, 0) and the
multiplier has components of magnitude 1/sqrt(2); everything the tests and
the command line need (schedules, the canonical start, a high-accuracy
reference saddle point) is built here.
"""

from __future__ import annotations

import numpy as np

from .functions import L1Norm, QuadraticDistance, ZeroFunction
from .problem import PrimalDualState, TwoBlockProblem
from .schedules import (
    C_VARIANTS,
    TAU_C_VARIANTS,
    ConstantSchedule,
    CoupledReciprocal,
    ParameterSchedule,
    ProxFriendlyMetric,
    ReciprocalQuadratic,
    ReciprocalSqrt,
    ScalarSchedule,
    ZeroMetric,
)

__all__ = [
    "C_VARIANTS",
    "TAU_C_VARIANTS",
    "example_problem",
    "example_c_schedule",
    "example_schedule",
    "example_start",
    "example_reference",
]

def example_problem() -> TwoBlockProblem:
    A = np.array([[2.0, 1.0], [-2.0, 1.0]]) / np.sqrt(8.0)
    B = np.array([[-3.0, 0.0], [4.0, 0.0]]) / 5.0
    return TwoBlockProblem(
        f=QuadraticDistance(d=np.array([1.0, 0.0]), weight=1.0),
        h1=ZeroFunction(2),
        g=L1Norm(2, 1.0),
        h2=ZeroFunction(2),
        A=A,
        B=B,
        b=np.zeros(2),
    )


def example_c_schedule(variant: str) -> ScalarSchedule:
    if variant == "c025":
        return ConstantSchedule(0.25)
    if variant == "c199":
        return ConstantSchedule(1.99)
    if variant == "c1-decay":
        return ReciprocalQuadratic(1.1, 0.01)
    if variant == "c2-decay":
        return ReciprocalSqrt(1.1, 0.01)
    raise ValueError(f"unknown c variant {variant!r}; choose from {C_VARIANTS}")


def example_schedule(c_variant: str = "c025", tau_c: float = 0.99,
                     problem: TwoBlockProblem | None = None) -> ParameterSchedule:
    """Schedules for one run: M1 = 0 and the prox-friendly M2.

    ``tau_c`` is the (constant) product tau(t) * c(t); the step schedule is
    tau(t) = tau_c / c(t), which keeps every coupling inequality satisfied
    as long as tau_c <= 1 / |B|^2.
    """
    if not 0.0 < tau_c <= 1.0:
        raise ValueError(f"tau_c must lie in (0, 1], got {tau_c}")
    p = problem if problem is not None else example_problem()
    c = example_c_schedule(c_variant)
    tau = CoupledReciprocal(tau_c, c)
    return ParameterSchedule(c=c, M1=ZeroMetric(p.dim_x),
                             M2=ProxFriendlyMetric(tau, c, p.B))


def example_start() -> PrimalDualState:
    return PrimalDualState(
        np.array([-10.0, 10.0]), np.array([-10.0, 10.0]), np.array([-10.0, 10.0])
    )


def example_reference() -> PrimalDualState:
    """A high-accuracy saddle point of the example.

    It is a committed constant: the bits of the final iterate of
    :func:`~amaflow.discrete.prox_ama_run` from :func:`example_start` under
    ``example_schedule("c025", 0.99)`` at tolerance 1e-10 (343 iterations), a
    test keeping the two within 1e-12. Taking the reference from that solve
    rather than typing in the exact saddle (0, 0; 0, 0; -1/sqrt 2, 1/sqrt 2)
    keeps the multiplier signs tied to this package's Lagrangian convention,
    and the energy column to the iterate's bits.
    """
    return PrimalDualState(np.array([0.0, -1.9151498426280616e-10]), np.zeros(2),
                           np.array([-0.707106781440463, 0.7071067809326322]))
