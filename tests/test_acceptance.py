"""End-to-end acceptance checks for the whole package.

Each test prints one [PASS]/[FAIL] verdict line on the real stdout (capture
suspended for the write) so a piped test log always shows the per-criterion
outcome, then asserts it.
"""

import numpy as np
import pytest

from amaflow import (
    ConstantSchedule,
    L1Norm,
    PrimalDualState,
    ProxFriendlyMetric,
    QuadraticDistance,
    QuadraticForm,
    ReciprocalQuadratic,
    SolveConfig,
    TwoBlockProblem,
    ZeroFunction,
    ZeroMetric,
    check_energy_monotone,
    example_problem,
    example_schedule,
    example_start,
    gamma,
    integrate,
    prox_ama_run,
    solve_x_subproblem,
    solve_z_subproblem,
    validate,
    validate_corollary,
)
from amaflow.diagnostics import trajectory_energies
from amaflow.functions import BoxIndicator

from oracles import (
    bruteforce_prox_1d_separable,
    bruteforce_prox_2d,
    bruteforce_prox_box,
)

C_TAUC_GRID = [(c, tc) for c in ("c025", "c199", "c1-decay", "c2-decay")
               for tc in (0.25, 0.99)]


@pytest.fixture
def verdict(capsys):
    def emit(num, label, ok, detail=""):
        tag = "PASS" if ok else "FAIL"
        extra = f" ({detail})" if detail else ""
        line = f"[{tag}] criterion {num}: {label}{extra}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return emit


@pytest.fixture(scope="module")
def converged_run(ex_problem, ex_sched_c025, ex_start):
    cfg = SolveConfig(max_iters=20000, tol_kkt=1e-6, tol_feas=1e-6,
                      record_every=100)
    return prox_ama_run(ex_problem, ex_sched_c025, ex_start, cfg)


def state_distance(s, ref):
    return float(np.sqrt(np.sum((s.x - ref.x) ** 2) + np.sum((s.z - ref.z) ** 2)
                         + np.sum((s.y - ref.y) ** 2)))


def test_criterion_01_discrete_solver_reproduces_the_example(verdict,
                                                             converged_run):
    res = converged_run
    ok = res.status == "converged" and res.iterations_used <= 20000
    nx = float(np.linalg.norm(res.final.x))
    nz = float(np.linalg.norm(res.final.z))
    dy = float(np.max(np.abs(np.abs(res.final.y) - 0.7071)))
    ok = ok and nx <= 1e-4 and nz <= 1e-4 and dy <= 1e-3
    verdict(1, "discrete run reaches the example optimum", ok,
            f"iters={res.iterations_used} |x|={nx:.2e} |z|={nz:.2e} "
            f"y-gap={dy:.2e}")


def test_criterion_02_continuous_runs_reach_the_same_triple(
        verdict, ex_problem, ex_sched_c025, ex_start, ex_reference):
    tr = integrate(ex_problem, ex_sched_c025, ex_start, method="rk4",
                   h=0.01, T=120.0, record_every=2000)
    d_rk4 = state_distance(tr.final.state, ex_reference)
    te = integrate(ex_problem, ex_sched_c025, ex_start, method="euler",
                   h=0.1, T=120.0, record_every=200)
    d_euler = state_distance(te.final.state, ex_reference)
    ok = d_rk4 <= 1e-2 and d_euler <= 5e-2
    verdict(2, "both integrators land on the optimum", ok,
            f"rk4={d_rk4:.2e} euler={d_euler:.2e}")


def test_criterion_03_unit_step_euler_equals_the_discrete_solver(
        verdict, ex_problem, ex_start):
    worst = 0.0
    for c_variant, tau_c in (("c025", 0.99), ("c199", 0.25), ("c1-decay", 0.99)):
        sched = example_schedule(c_variant, tau_c, ex_problem)
        traj = integrate(ex_problem, sched, ex_start, method="euler", h=1.0,
                         T=50.0)
        run = prox_ama_run(ex_problem, sched, ex_start,
                           SolveConfig(max_iters=50, tol_kkt=1e-15,
                                       tol_feas=1e-15))
        assert len(traj.samples) == len(run.iterates.samples) == 51
        for a, b in zip(traj.samples, run.iterates.samples):
            worst = max(
                worst,
                float(np.max(np.abs(a.state.x - b.state.x))),
                float(np.max(np.abs(a.state.z - b.state.z))),
                float(np.max(np.abs(a.state.y - b.state.y))),
            )
    ok = worst <= 1e-12
    verdict(3, "unit-step trajectory equals solver iterates", ok,
            f"max componentwise gap={worst:.2e} over 3 configurations")


def test_criterion_04_field_vanishes_at_the_saddle(verdict, ex_problem,
                                                   ex_reference):
    worst = 0.0
    for c_variant in ("c025", "c199", "c1-decay", "c2-decay"):
        sched = example_schedule(c_variant, 0.99, ex_problem)
        for t in (0.0, 1.0, 10.0, 100.0):
            worst = max(worst, gamma(ex_problem, sched, t, ex_reference).norm)
    ok = worst <= 1e-8
    verdict(4, "field norm at the saddle stays tiny", ok,
            f"max over 4 schedules x 4 times = {worst:.2e}")


def test_criterion_05_energy_decreases_along_all_variants(
        verdict, ex_problem, ex_start, ex_reference):
    runs = [
        ("c025", "rk4", 0.01, 130.0, 100),
        ("c199", "rk4", 0.01, 40.0, 50),
        ("c1-decay", "euler", 0.05, 4200.0, 200),
        ("c2-decay", "euler", 0.05, 500.0, 100),
    ]
    ok = True
    details = []
    for c_variant, method, h, T, rec in runs:
        sched = example_schedule(c_variant, 0.99, ex_problem)
        traj = integrate(ex_problem, sched, ex_start, method=method, h=h, T=T,
                         record_every=rec)
        energies = trajectory_energies(traj, ex_problem, sched, ex_reference)
        passed, violation = check_energy_monotone(energies)
        e_final = energies[-1]
        ok = ok and passed and e_final <= 1e-6
        details.append(f"{c_variant}: viol={violation:.1e} E(T)={e_final:.1e}")
    verdict(5, "energy is monotone and ends below 1e-6", ok, "; ".join(details))


def test_criterion_06_prox_maps_match_brute_force(verdict):
    rng = np.random.default_rng(60801)
    worst = 0.0

    for _ in range(50):
        d = rng.uniform(-3, 3, 2)
        w = float(rng.uniform(0.2, 3.0))
        gam = float(rng.uniform(0.1, 4.0))
        x = rng.uniform(-5, 5, 2)
        got = QuadraticDistance(d, w).prox(gam, x)
        ora = np.array([bruteforce_prox_1d_separable(
            lambda t, dd=d[i]: 0.5 * w * (t - dd) ** 2, gam, [x[i]])[0]
            for i in range(2)])
        worst = max(worst, float(np.max(np.abs(got - ora))))

    for _ in range(50):
        w = float(rng.uniform(0.0, 2.0))
        gam = float(rng.uniform(0.1, 4.0))
        x = rng.uniform(-5, 5, 2)
        got = L1Norm(2, w).prox(gam, x)
        ora = bruteforce_prox_1d_separable(lambda t: w * np.abs(t), gam, x)
        worst = max(worst, float(np.max(np.abs(got - ora))))

    for _ in range(50):
        lo = rng.uniform(-3, 0, 2)
        hi = rng.uniform(0.5, 3, 2)
        x = rng.uniform(-5, 5, 2)
        got = BoxIndicator(lo, hi).prox(float(rng.uniform(0.1, 4.0)), x)
        worst = max(worst, float(np.max(np.abs(got - bruteforce_prox_box(lo, hi, x)))))

    for _ in range(50):
        x = rng.uniform(-5, 5, 2)
        got = ZeroFunction(2).prox(float(rng.uniform(0.1, 4.0)), x)
        worst = max(worst, float(np.max(np.abs(got - x))))

    for _ in range(50):
        raw = rng.uniform(-1, 1, (2, 2))
        qmat = raw @ raw.T + 0.3 * np.eye(2)
        fun = QuadraticForm(qmat, rng.uniform(-1, 1, 2))
        gam = float(rng.uniform(0.1, 3.0))
        x = rng.uniform(-4, 4, 2)

        def objective(yv):
            return gam * fun(yv) + 0.5 * float(np.sum((yv - x) ** 2))

        worst = max(worst, float(np.max(np.abs(
            fun.prox(gam, x) - bruteforce_prox_2d(objective)))))

    ok = worst <= 1e-4
    verdict(6, "prox catalog agrees with brute-force minimization", ok,
            f"max error over 5x50 instances = {worst:.2e}")


def test_criterion_07_subproblem_maps_are_lipschitz(verdict, ex_problem):
    rng = np.random.default_rng(70701)

    m1 = 0.0
    x_fix = np.array([0.3, -0.4])
    bound_x = 1.0 / ex_problem.f.strong_convexity
    worst_x = 0.0
    for _ in range(100):
        y1 = rng.uniform(-5, 5, 2)
        y2 = y1 + rng.uniform(0.5, 4.0) * _unit(rng)
        num = np.linalg.norm(solve_x_subproblem(ex_problem, m1, x_fix, y1)
                             - solve_x_subproblem(ex_problem, m1, x_fix, y2))
        worst_x = max(worst_x, float(num / np.linalg.norm(y1 - y2)))

    m2_mat = np.array([[0.5, 0.1], [0.1, 0.7]])
    c = 0.3
    beta = c + float(np.linalg.eigvalsh(m2_mat)[0])
    p2 = TwoBlockProblem(
        f=QuadraticDistance(np.zeros(2), 1.0),
        h1=ZeroFunction(2),
        g=L1Norm(2, 1.0),
        h2=ZeroFunction(2),
        A=np.eye(2),
        B=np.eye(2),
        b=np.zeros(2),
    )
    m2 = m2_mat
    z_fix = np.array([0.1, 0.2])
    y_fix = np.array([-0.5, 0.3])
    bound_z = c / beta
    worst_z = 0.0
    for _ in range(100):
        x1 = rng.uniform(-4, 4, 2)
        x2 = x1 + rng.uniform(0.5, 4.0) * _unit(rng)
        num = np.linalg.norm(
            solve_z_subproblem(p2, m2, c, None, z_fix, y_fix, x1)
            - solve_z_subproblem(p2, m2, c, None, z_fix, y_fix, x2))
        worst_z = max(worst_z, float(num / np.linalg.norm(x1 - x2)))

    ok = worst_x <= bound_x + 1e-9 and worst_z <= bound_z + 1e-9
    verdict(7, "subproblem maps respect their Lipschitz bounds", ok,
            f"x-map {worst_x:.6f} <= {bound_x:.6f}; "
            f"z-map {worst_z:.6f} <= {bound_z:.6f}")


def _unit(rng):
    v = rng.standard_normal(2)
    return v / np.linalg.norm(v)


def test_criterion_08_validator_accepts_good_and_rejects_bad(verdict,
                                                             ex_problem):
    eps = 0.005
    grid = np.concatenate([[0.0], np.linspace(0.1, 100.0, 200)])
    accepted = []
    for c_variant, tau_c in C_TAUC_GRID:
        sched = example_schedule(c_variant, tau_c, ex_problem)
        rep = validate(ex_problem, sched.c, sched.M1, sched.M2, eps, grid)
        accepted.append(rep.passed)

    c_big = ReciprocalQuadratic(1.1, 1.2)
    rej1 = validate(
        ex_problem, c_big, ZeroMetric(2),
        ProxFriendlyMetric(ConstantSchedule(0.5), c_big, ex_problem.B), eps, grid)
    over = ProxFriendlyMetric(ConstantSchedule(4.4), ConstantSchedule(0.25),
                              ex_problem.B)
    rej2 = validate(ex_problem, ConstantSchedule(0.25), ZeroMetric(2), over,
                    eps, grid)
    rej3 = validate_corollary(ex_problem, ConstantSchedule(0.25),
                              ConstantSchedule(4.4), eps, grid)

    ok = (all(accepted)
          and not rej1.passed and "c-range" in rej1.failed_rules()
          and not rej2.passed and "m2-lower-bound" in rej2.failed_rules()
          and not rej3.passed and "coupling-inequality" in rej3.failed_rules())
    verdict(8, "schedule validator accepts 8 good configs, rejects 2 bad kinds",
            ok, f"accepted={sum(accepted)}/8")


def test_criterion_09_operator_norms_are_unit(verdict, ex_problem):
    gap_a = abs(ex_problem.norm_A - 1.0)
    gap_b = abs(ex_problem.norm_B - 1.0)
    ok = gap_a <= 1e-8 and gap_b <= 1e-8
    verdict(9, "both operator norms equal one", ok,
            f"|A| off by {gap_a:.1e}, |B| off by {gap_b:.1e}")


def test_criterion_10_strong_duality_holds_at_the_limit(verdict, ex_problem,
                                                        converged_run):
    res = converged_run
    primal = ex_problem.primal_objective(res.final.x, res.final.z)
    dual = ex_problem.dual_objective(res.final.y)
    gap = abs(primal - dual)
    ok = gap <= 1e-5 and abs(primal - 0.5) <= 1e-5
    verdict(10, "dual value meets the primal value at 0.5", ok,
            f"primal={primal:.7f} dual={dual:.7f} gap={gap:.1e}")


def test_criterion_11_first_block_limit_is_start_independent(
        verdict, ex_problem, ex_sched_c025):
    rng = np.random.default_rng(111101)
    cfg = SolveConfig(max_iters=40000, tol_kkt=1e-8, tol_feas=1e-8,
                      record_every=1000)
    finals = []
    for _ in range(5):
        s0 = PrimalDualState(np.array([-10.0, 10.0]), rng.uniform(-10, 10, 2),
                             rng.uniform(-10, 10, 2))
        res = prox_ama_run(ex_problem, ex_sched_c025, s0, cfg)
        assert res.status == "converged"
        finals.append(res.final.x)
    spread = max(
        float(np.linalg.norm(a - b))
        for i, a in enumerate(finals) for b in finals[i + 1:])
    ok = spread <= 1e-5
    verdict(11, "the first block's limit ignores the start", ok,
            f"pairwise spread={spread:.2e} over 5 starts")
