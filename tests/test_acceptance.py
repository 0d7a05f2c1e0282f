"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criterion 9 needs the Law School canonical CSV at data/law_school.csv
(see scripts/prepare_law_school.py) and is skipped when it is absent.
"""

import itertools
import math
import pathlib
import time

import numpy as np
import pytest

from fairpost.barycenter_lp import build_lp, linprog, solve
from fairpost.cli import main
from fairpost.data_io import (DatasetSchema, GroupedSamples, load_csv, split_train_test)
from fairpost.dp_estimation import (empirical_joint, estimate_private_dists,
                                    group_weights, isotonic_midrange, renormalize_cdf)
from fairpost.errors import SolverFailure
from fairpost.grid import make_grid
from fairpost.metrics import statistical_parity_gap
from fairpost.pipeline import estimate, fit
from fairpost.transport import extract_kernels
from lp_oracles import dists_from_pmfs, fixed_target_cost, ks_distance, w2sq_monotone
from sample_rows import from_rows

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "data"
LAW_SCHOOL_CSV = DATA_DIR / "law_school.csv"


def report(num, text):
    print(f"\nACCEPTANCE {num:02d} PASS - {text}")


def random_pmf(rng, k):
    x = rng.random(k) + 1e-3
    return x / x.sum()


def columnar(rng, group_idx, scores, n_groups):
    return GroupedSamples(groups=tuple(f"g{i}" for i in range(n_groups)),
                          group_idx=np.asarray(group_idx, dtype=np.intp),
                          scores=np.asarray(scores, dtype=float))


# ---------------------------------------------------------------- criterion 1


def test_criterion_01_sensitivity():
    """L1 distance between empirical joints of neighboring datasets <= 2/n."""
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(3, 201))
        k = int(rng.integers(1, 13))
        n_groups = int(rng.integers(1, 4))
        g = make_grid(0, 1, k)
        gi = rng.integers(0, n_groups, n)
        ys = rng.random(n)
        base = columnar(rng, gi, ys, n_groups)
        op = rng.integers(0, 3)
        if op == 0:  # substitution
            gi2, ys2 = gi.copy(), ys.copy()
            i = int(rng.integers(0, n))
            gi2[i] = rng.integers(0, n_groups)
            ys2[i] = rng.random()
            other = columnar(rng, gi2, ys2, n_groups)
        elif op == 1:  # insertion
            other = columnar(rng, np.append(gi, rng.integers(0, n_groups)),
                             np.append(ys, rng.random()), n_groups)
        else:  # deletion
            i = int(rng.integers(0, n))
            other = columnar(rng, np.delete(gi, i), np.delete(ys, i), n_groups)
        l1 = np.abs(empirical_joint(base, g) - empirical_joint(other, g)).sum()
        assert l1 <= 2.0 / n + 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(1, f"1000 neighboring pairs stay within L1 2/n ({elapsed:.2f}s)")


# ---------------------------------------------------------------- criterion 2


def literal_isotonic(values):
    values = np.asarray(values, dtype=float)
    out = np.empty(len(values))
    for j in range(len(values)):
        out[j] = 0.5 * (max(values[: j + 1]) + min(values[j:]))
    return out


def test_criterion_02_renormalization_validity():
    rng = np.random.default_rng(7)
    checked_passthrough = 0
    for trial in range(10000):
        k = int(rng.integers(1, 65))
        kind = trial % 5
        if kind == 0:
            row = rng.normal(0, 5, k)          # heavy negatives
        elif kind == 1:
            row = rng.normal(0, 1, k) + 3.0    # values far above one
        elif kind == 2:
            row = rng.laplace(0, 0.5, k)
        elif kind == 3:
            pmf = random_pmf(rng, k)           # valid dyadic-free input
            row = pmf
        else:
            row = rng.normal(0, 1, k) * (10.0 ** rng.integers(-6, 6))
        weight = float(rng.choice([0.0, 1e-9, 0.3, 1.0, 7.5]))
        cdf, pmf = renormalize_cdf(row, weight)
        assert (np.diff(cdf) >= 0).all()
        assert cdf[-1] == 1.0
        assert (cdf >= 0).all() and (cdf <= 1).all()
        assert (pmf >= 0).all()
        assert abs(pmf.sum() - 1.0) <= 1e-9
        assert np.allclose(np.diff(cdf, prepend=0.0), pmf)

        # O(k) isotonic matches the literal pairwise-argmax construction
        partial = np.cumsum(row) / weight if weight > 0 else np.zeros(k)
        partial = np.nan_to_num(partial, nan=0.0, posinf=1e300, neginf=-1e300)
        assert np.abs(isotonic_midrange(partial) - literal_isotonic(partial)).max() <= 1e-12

        if trial % 20 == 0:
            # isotone valid CDFs built from dyadic values (multiples of 1/64,
            # so differences and partial sums are exact) pass through unchanged
            valid = np.sort(rng.integers(0, 65, k)) / 64.0
            valid[-1] = 1.0
            got, _ = renormalize_cdf(np.diff(valid, prepend=0.0), 1.0)
            assert np.array_equal(got, valid)
            checked_passthrough += 1
    report(2, f"10000 fuzzed rows renormalize to valid CDFs "
              f"({checked_passthrough} isotone pass-throughs verified)")


# ---------------------------------------------------------------- criterion 3


def enumerate_simplex(k, denominator):
    for cuts in itertools.combinations_with_replacement(range(denominator + 1), k - 1):
        yield np.diff((0,) + cuts + (denominator,)) / denominator


def both_routes(lp):
    """The objective by the isotonic reduction (``solve``) and by the full
    program in one HiGHS call (``linprog``); the two must agree within 1e-9."""
    routes = (solve(lp).objective, linprog(lp).objective)
    assert routes[0] == pytest.approx(routes[1], abs=1e-9)
    return routes


def test_criterion_03_lp_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)

    # (a) transport LP against the monotone-coupling oracle
    for _ in range(200):
        k = int(rng.integers(1, 9))
        g = make_grid(0, 1, k)
        p, q = random_pmf(rng, k), random_pmf(rng, k)
        assert fixed_target_cost(p, q, g) == pytest.approx(
            w2sq_monotone(p, q, g)[0], abs=1e-7)
    # free-target single-group LP collapses to the zero-cost self transport
    for _ in range(20):
        k = int(rng.integers(1, 9))
        g = make_grid(0, 1, k)
        p = random_pmf(rng, k)
        for objective in both_routes(build_lp(dists_from_pmfs([p], [1.0]), 0.0)):
            assert objective == pytest.approx(w2sq_monotone(p, p, g)[0], abs=1e-7)

    # (b) two-group equal-weight instances with on-grid quantile averages
    checked_b = 0
    while checked_b < 40:
        k = int(rng.integers(3, 9))
        shift = int(rng.integers(1, max(2, k // 2)))
        if k - 2 * shift < 1:
            continue
        g = make_grid(0, 1, k)
        core = random_pmf(rng, k - 2 * shift)
        p = np.zeros(k)
        q = np.zeros(k)
        p[:len(core)] = core
        q[2 * shift:] = core
        for objective in both_routes(build_lp(dists_from_pmfs([p, q], [0.5, 0.5]), 0.0)):
            assert objective == pytest.approx(0.25 * w2sq_monotone(p, q, g)[0], abs=1e-7)
        checked_b += 1

    # (c) opposed point masses against a simplex-grid enumeration oracle
    g3 = make_grid(0, 1, 3)
    pmfs = np.array([[1.0, 0, 0], [0, 0, 1.0]])
    weights = np.array([0.5, 0.5])
    best_q, best_cost = None, np.inf
    for cand in enumerate_simplex(3, 8):
        c = sum(w * w2sq_monotone(p, cand, g3)[0] for p, w in zip(pmfs, weights))
        if c < best_cost:
            best_q, best_cost = cand, c
    lp3 = build_lp(dists_from_pmfs(pmfs, weights), 0.0)
    sol = solve(lp3)
    assert best_cost == pytest.approx(1 / 9)
    assert np.allclose(best_q, [0, 1, 0])
    for objective in both_routes(lp3):
        assert objective == pytest.approx(1 / 9, abs=1e-9)
    assert np.allclose(sol.barycenter, [0, 1, 0], atol=1e-9)

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(3, f"LP (isotonic reduction and full program) matches the transport, "
              f"quantile-average, and enumeration oracles ({elapsed:.2f}s)")


# ---------------------------------------------------------------- criterion 4


def test_criterion_04_feasibility_and_target_fairness():
    rng = np.random.default_rng(44)
    instances = 0
    for _ in range(60):
        k = int(rng.integers(1, 10))
        n_groups = int(rng.integers(1, 5))
        alpha = float(rng.choice([0.0, 0.03, 0.2, 0.7]))
        weights = rng.random(n_groups)
        if instances % 4 == 0:
            weights[rng.integers(0, n_groups)] = 0.0
        pmfs = [random_pmf(rng, k) for _ in range(n_groups)]
        lp = build_lp(dists_from_pmfs(pmfs, weights), alpha)
        sol = solve(lp)  # solve() raises if the solution fails its certificate
        for a in range(n_groups):
            assert np.abs(sol.couplings[a].sum(axis=1) - pmfs[a]).max() <= 1e-6
            assert np.abs(sol.couplings[a].sum(axis=0) - sol.targets[a]).max() <= 1e-6
            # monotone support after rearrangement
            running_max = -1
            for j in range(k):
                active = np.nonzero(sol.couplings[a][j] > 1e-7)[0]
                if len(active):
                    assert running_max <= active.min()
                    running_max = max(running_max, active.max())
        for a in range(n_groups):
            for b in range(a + 1, n_groups):
                gap = ks_distance(sol.targets[a] / sol.targets[a].sum(),
                                  sol.targets[b] / sol.targets[b].sum())
                assert gap <= alpha + 1e-6
        instances += 1
    report(4, f"{instances} solved instances feasible, fair, and monotone")


# ---------------------------------------------------------------- criterion 5


def fitted_battery():
    rng = np.random.default_rng(5)
    combos = [(0.0, math.inf), (0.1, math.inf), (0.05, 1.0), (0.3, 0.5)]
    for i, (alpha, eps) in enumerate(combos):
        rows = [("A", float(x)) for x in rng.beta(2, 5, 250)]
        rows += [("B", float(x)) for x in rng.beta(5, 2, 180)]
        yield fit(estimate(from_rows(rows), (0, 1), 8, eps, i), alpha)


def test_criterion_05_pushforward_identity_and_monte_carlo():
    models = list(fitted_battery())
    for model in models:
        for a in range(len(model.groups)):
            got = model.pmfs[a] @ model.kernels[a]
            assert np.abs(got - model.targets[a]).max() <= 1e-9

    model = models[1]
    rng = np.random.default_rng(900)
    for a, label in enumerate(model.groups):
        draws = rng.choice(model.grid.k, size=10 ** 5, p=model.pmfs[a])
        preds = model.predict_batch((label,), np.zeros(len(draws), dtype=np.intp),
                                    model.grid.midpoints[draws], rng)
        hist = np.array([(preds == v).mean() for v in model.grid.midpoints])
        assert np.abs(hist - model.targets[a]).sum() < 0.02
    report(5, "pushforward equals LP targets; 1e5-draw Monte Carlo within L1 0.02")


# ---------------------------------------------------------------- criterion 6


def test_criterion_06_k1_exact_fairness():
    rng = np.random.default_rng(66)
    for trial in range(5):
        n_groups = int(rng.integers(1, 5))
        rows = [(f"g{int(rng.integers(0, n_groups))}", float(rng.normal(0.4, 0.3)))
                for _ in range(int(rng.integers(5, 120)))]
        samples = from_rows(rows)
        alpha = float(rng.choice([0.0, 0.5]))  # the stream draws alpha, then epsilon
        model = fit(estimate(samples, (0, 1), 1, float(rng.choice([0.5, math.inf])), trial),
                    alpha)
        stream = np.random.default_rng(trial)
        group_idx = np.repeat(np.arange(len(samples.groups)), 40)
        outputs = model.predict_batch(samples.groups, group_idx,
                                      rng.normal(0.5, 1, len(group_idx)), stream)
        assert statistical_parity_gap(group_idx, outputs, len(samples.groups), model.grid) == 0.0
    report(6, "k = 1 collapses every group to the single midpoint: gap exactly 0")


# ---------------------------------------------------------------- criterion 7


def test_criterion_07_noiseless_reduction():
    rng = np.random.default_rng(77)
    rows = [("A", float(x)) for x in rng.beta(2, 4, 150)]
    rows += [("B", float(x)) for x in rng.beta(4, 2, 100)]
    samples = from_rows(rows)
    k, alpha = 6, 0.1
    model = fit(estimate(samples, (0, 1), k, math.inf, 0), alpha)

    # non-private reference built directly from the empirical conditionals
    g = make_grid(0, 1, k)
    joint = empirical_joint(samples, g)
    w = group_weights(joint)
    pmfs = joint / w[:, None]
    ref = solve(build_lp(dists_from_pmfs(pmfs, w), alpha))
    kern = extract_kernels(ref, dists_from_pmfs(pmfs, w).pmfs)
    assert model.objective == pytest.approx(ref.objective, abs=1e-12)
    assert np.allclose(model.kernels, kern, atol=1e-12)
    assert np.allclose(model.pmfs, pmfs, atol=1e-12)

    # identical group distributions at alpha = 0: identity kernels, zero cost
    ys = [float(x) for x in rng.random(90)]
    twin = from_rows([("A", y) for y in ys] + [("B", y) for y in ys])
    model2 = fit(estimate(twin, (0, 1), 5, math.inf, 0), 0.0)
    assert model2.objective == pytest.approx(0.0, abs=1e-9)
    for a in range(2):
        assert np.allclose(model2.kernels[a], np.eye(5), atol=1e-7)
    report(7, "eps = inf reproduces the non-private route; twins get identity kernels")


# ---------------------------------------------------------------- criterion 8


def test_criterion_08_ks_error_scaling():
    """Mean KS error of the private estimate halves (within 30%) when the
    sample count is quadrupled at fixed k and epsilon."""
    t0 = time.perf_counter()
    k, eps, trials = 20, 1.0, 60
    g = make_grid(0, 1, k)
    uniform = np.full(k, 1.0 / k)
    rng = np.random.default_rng(808)

    def mean_ks(n):
        total = 0.0
        for _ in range(trials):
            bins = rng.integers(0, k, n)
            samples = GroupedSamples(groups=("g",),
                                     group_idx=np.zeros(n, dtype=np.intp),
                                     scores=g.midpoints[bins])
            _, pmfs = estimate_private_dists(samples, g, eps, rng)
            total += ks_distance(uniform, pmfs[0])
        return total / trials

    ratio = mean_ks(20000) / mean_ks(80000)
    assert 1.4 <= ratio <= 2.6
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(8, f"KS error ratio at n vs 4n = {ratio:.3f} in [1.4, 2.6] ({elapsed:.1f}s)")


# ---------------------------------------------------------------- criterion 9


@pytest.mark.skipif(not LAW_SCHOOL_CSV.exists(),
                    reason="law school canonical CSV not present at data/law_school.csv; "
                           "see scripts/prepare_law_school.py")
def test_criterion_09_law_school_endpoint():
    schema = DatasetSchema(interval=(1.0, 4.0))
    samples = load_csv(LAW_SCHOOL_CSV, schema)
    assert samples.n == 21983
    assert len(samples.groups) == 4

    train, test = split_train_test(samples, 0.7, seed=0)
    smallest = min(np.bincount(train.group_idx, minlength=4))
    assert abs(smallest - 628) <= 40  # binomial fluctuation around 0.7 * n_a

    # (alpha = 0, k = 1): constant output at mid-interval, exactly fair
    model = fit(estimate(train, schema.interval, 1, 0.1, 0), 0.0)
    rng = np.random.default_rng(0)
    preds = model.predict_batch(test.groups, test.group_idx, test.scores, rng)
    mse_raw = float(np.mean((preds - test.labels) ** 2))
    assert abs(mse_raw - 0.6772) <= 0.1 * 0.6772
    gap = statistical_parity_gap(test.group_idx, model.transform.to_internal(preds),
                                 len(samples.groups), model.grid)
    assert gap == 0.0

    # qualitative: seed-averaged gap tracks alpha; fewer bins, smaller gap
    from fairpost.sweep import SweepConfig, aggregate, run_sweep
    cfg = SweepConfig(data_path=None, schema=schema,
                      alphas=(0.0, 0.02, 0.05, 0.1, math.inf), ks=(6, 24),
                      epsilons=(math.inf,), seeds=6, master_seed=0)
    aggs = aggregate(run_sweep(cfg, samples=samples))
    for k in (6, 24):
        series = sorted((a for a in aggs if a.k == k), key=lambda a: a.alpha)
        for lo, hi in zip(series[:-1], series[1:]):
            assert lo.delta_sp_mean <= hi.delta_sp_mean + 2 * (lo.delta_sp_se + hi.delta_sp_se)
    at_inf = {a.k: a.delta_sp_mean for a in aggs if math.isinf(a.alpha)}
    assert at_inf[6] <= at_inf[24] + 1e-9
    report(9, f"law school: n=21983, 4 groups, (alpha=0, k=1) raw MSE {mse_raw:.4f}")


# --------------------------------------------------------------- criterion 10


def test_criterion_10_sweep_determinism(tmp_path):
    import json

    rng = np.random.default_rng(10)
    data = tmp_path / "synth.csv"
    with open(data, "w") as fh:
        fh.write("group,score,label\n")
        for _ in range(150):
            grp = "AB"[int(rng.integers(0, 2))]
            y = float(rng.beta(2, 4) if grp == "A" else rng.beta(4, 2))
            fh.write(f"{grp},{y!r},{y!r}\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "data": str(data),
        "alphas": [0.0, 0.1, "inf"],
        "ks": [1, 4],
        "epsilons": [1.0, "inf"],
        "seeds": 2,
    }))
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        rc = main(["sweep", "--config", str(cfg), "--seed", "42",
                   "--out", str(out), "--allow-budget-reuse"])
        assert rc == 0
        outs.append(out)
    for fname in ("results.csv", "aggregates.csv", "envelope.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
    report(10, "repeated sweeps are byte-identical at a fixed master seed")
