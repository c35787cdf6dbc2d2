"""The operations of the example-cli workload, shared by the runner and the checker.

Standard library only: the runner imports this module and must stay small,
because a child's peak-RSS reading starts from its parent's.
"""

from __future__ import annotations

from typing import NamedTuple

# The acceptance criterion-5 integrations (c variant, method, step, horizon,
# record-every), with horizons divided by HORIZON_DIVISOR so one round of
# example-cli stays near seven seconds. At full length the four runs
# alone take about eleven seconds of a round.
CRITERION_5 = (
    ("c025", "rk4", 0.01, 130.0, 100),
    ("c199", "rk4", 0.01, 40.0, 50),
    ("c1-decay", "euler", 0.05, 4200.0, 200),
    ("c2-decay", "euler", 0.05, 500.0, 100),
)
HORIZON_DIVISOR = 10


class Op(NamedTuple):
    """One CLI invocation.

    ``category`` is "solve" (paper-example and solve), "validate" or "norm".
    ``tol`` marks a tolerance-stopped discrete run; ``updates`` is the number
    of alternating updates of a continuous run (steps times stages), while a
    discrete run's count is read from its report. ``calls`` is how many times
    a round invokes it: the short validations run twice, so that their
    medians rest on more samples.
    """

    id: str
    sub: str
    file: str | None
    args: tuple
    category: str
    tol: bool = False
    updates: int = 0
    calls: int = 1

    @property
    def writes(self) -> bool:
        return self.sub in ("solve", "paper-example")

    def argv(self, workdir: str, outdir: str) -> list:
        out = [self.sub]
        if self.file:
            out.append(f"{workdir}/{self.file}")
        out += list(self.args)
        if self.writes:
            out += ["--out-prefix", f"{outdir}/{self.id}"]
        return out


def example_ops() -> list:
    ops = [
        Op("pe-c025-prox", "paper-example", None, (), "solve", tol=True),
        Op("pe-c199-tc025-prox", "paper-example", None,
           ("--c-schedule", "c199", "--tau-c", "tc025"), "solve", tol=True),
        Op("pe-c1-decay-prox", "paper-example", None, ("--c-schedule", "c1-decay"),
           "solve", tol=True),
        Op("pe-c2-decay-prox", "paper-example", None, ("--c-schedule", "c2-decay"),
           "solve", tol=True),
        Op("pe-c025-ama", "paper-example", None, ("--mode", "ama"), "solve", tol=True),
    ]
    for variant, method, h, T, rec in CRITERION_5:
        horizon = T / HORIZON_DIVISOR
        steps = int(round(horizon / h))
        stages = 4 if method == "rk4" else 1
        ops.append(Op(f"pe-{variant}-{method}", "paper-example", None,
                      ("--c-schedule", variant, "--mode", f"continuous-{method}",
                       "--step", repr(h), "--horizon", repr(horizon),
                       "--record-every", str(rec)),
                      "solve", updates=steps * stages))
    f = "example.json"
    ops += [
        Op("file-solve", "solve", f, (), "solve", tol=True),
        Op("file-solve-ama", "solve", f, ("--mode", "ama"), "solve", tol=True),
        Op("file-validate", "validate", f, (), "validate", calls=2),
        Op("file-validate-corollary", "validate", f, ("--corollary",), "validate", calls=2),
        Op("file-norm", "norm", f, (), "norm"),
        # The same problem with a constant dense M2: the z-step runs the inner
        # proximal-gradient loop, with min_eigenvalue_sym and operator_norm.
        Op("general-solve", "solve", "example-general.json", (), "solve", tol=True),
    ]
    return ops
