"""Acceptance gate: one test per headline claim, at full problem scale.

Each test prints a single ``[criterion k] ...: PASS/FAIL`` line (visible
with ``pytest -s`` and in failure reports) and then asserts, so the
verbose test listing doubles as the acceptance scoreboard.  Sample sizes,
slice counts, seeds, and tolerances are pinned; the suite is fully
deterministic.
"""

import time

import numpy as np
import pytest

from ridgerec.cli import read_samples_csv, write_samples_csv
from ridgerec.estimators import estimate, make_partition, save_matrix, sir_matrix
from ridgerec.experiments import (
    StudyConfig,
    gap_dependence_check,
    quadratic_fit_r2,
    run_convergence,
    summary_plot_data,
)
from ridgerec.measures import fit_standardizer
from ridgerec.slicing import partition_equal_count, slice_stats
from ridgerec.spectral import gap_profile, orthonormal_basis, subspace_distance
from ridgerec.testfns import generate_samples, get_test_function, hartmann_true_subspace

from oracles import save_matrix_oracle, sir_matrix_oracle, standardized_set

RUN_SEED = 11
STUDY_SEED = 31
GAP_STUDY_SEED = 21


def report(number: int, label: str, checks: list) -> None:
    ok = all(bool(v) for _, v in checks)
    print(f"\n[criterion {number}] {label}: {'PASS' if ok else 'FAIL'}")
    for name, value in checks:
        print(f"    {'ok  ' if value else 'FAIL'} {name}")
    assert ok, f"criterion {number} failed: " + "; ".join(
        name for name, value in checks if not value
    )


@pytest.fixture(scope="module")
def quad1_samples():
    fn = get_test_function("quad1")
    return fn, generate_samples(fn, 10_000, seed=RUN_SEED)


@pytest.fixture(scope="module")
def truth_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("truth-cache"))


def test_criterion_1_save_recovers_symmetric_ridge(quad1_samples):
    """SAVE on the symmetric quadratic: direction found, rank-one spectrum."""
    fn, s = quad1_samples
    t0 = time.perf_counter()
    est = estimate(s, 20, "equal-count", "save", 1)
    elapsed = time.perf_counter() - t0
    dist = subspace_distance(est.subspace.basis, fn.true_subspace)
    ratio = est.spectrum.eigenvalues[1] / est.spectrum.eigenvalues[0]
    report(1, "SAVE recovers the quad1 direction", [
        (f"subspace distance {dist:.4f} < 0.1", dist < 0.1),
        (f"eigenvalue ratio {ratio:.4f} < 0.1", ratio < 0.1),
        (f"runtime {elapsed:.2f}s < 10s", elapsed < 10.0),
    ])


def test_criterion_2_sir_blind_to_symmetric_ridge(quad1_samples):
    """SIR on the same data: null spectrum and a structureless summary plot."""
    fn, s = quad1_samples
    t0 = time.perf_counter()
    est = estimate(s, 20, "equal-count", "sir", 1)
    plot = summary_plot_data(s, est, 1)
    r2 = quadratic_fit_r2(plot.projections, plot.outputs)
    elapsed = time.perf_counter() - t0
    lead = est.spectrum.eigenvalues[0]
    report(2, "SIR is blind to the symmetric quad1 ridge", [
        (f"leading eigenvalue {lead:.4f} < 0.1", lead < 0.1),
        (f"quadratic fit R^2 {r2:.4f} < 0.3", r2 < 0.3),
        (f"runtime {elapsed:.2f}s < 10s", elapsed < 10.0),
    ])


def test_criterion_3_both_methods_find_three_dimensions():
    """quad3 at N=1e5: a visible gap after the third eigenvalue and a
    close match to the analytic three-dimensional subspace."""
    fn = get_test_function("quad3")
    t0 = time.perf_counter()
    s = generate_samples(fn, 100_000, seed=RUN_SEED)
    checks = []
    for method in ("sir", "save"):
        est = estimate(s, 20, "equal-count", method, 3)
        rel_gap = gap_profile(est.spectrum).relative[2]
        dist = subspace_distance(est.subspace.basis, fn.true_subspace)
        checks.append((f"{method}: relative gap {rel_gap:.4f} > 0.05", rel_gap > 0.05))
        checks.append((f"{method}: subspace distance {dist:.4f} < 0.2", dist < 0.2))
    elapsed = time.perf_counter() - t0
    checks.append((f"runtime {elapsed:.1f}s < 60s", elapsed < 60.0))
    report(3, "SIR and SAVE recover the quad3 structure", checks)


def test_criterion_4_convergence_slopes(truth_cache):
    """Error decay across N in {1e3, 1e4, 1e5}: subspace distance near
    the theoretical -1/2 power, eigenvalue MSE at least as fast as -0.8."""
    t0 = time.perf_counter()
    checks = []
    for method, n_slices in (("sir", 16), ("save", 3)):
        study = run_convergence(StudyConfig(
            function="quad3",
            method=method,
            sizes=(1_000, 10_000, 100_000),
            trials=10,
            seed=STUDY_SEED,
            n_components=3,
            n_slices=n_slices,
            scheme="equal-count",
            truth_size=1_000_000,
            truth_seed=777,
        ), truth_cache)
        sub, mse = study.subspace_slope, study.eig_mse_slope
        checks.append((
            f"{method} (R={n_slices}): subspace slope {sub:.3f} in [-0.65, -0.35]",
            -0.65 <= sub <= -0.35,
        ))
        checks.append((
            f"{method} (R={n_slices}): eigenvalue-MSE slope {mse:.3f} <= -0.8",
            mse <= -0.8,
        ))
        checks.append((
            f"{method}: distance trend inversions {study.distance_trend_inversions} <= 1",
            study.distance_trend_inversions <= 1,
        ))
    elapsed = time.perf_counter() - t0
    checks.append((f"runtime {elapsed:.1f}s < 600s", elapsed < 600.0))
    report(4, "convergence rates match the theory", checks)


def test_criterion_5_hartmann_two_dimensional_structure():
    """Hartmann in standardized log coordinates: both methods land on the
    analytic plane and the two leading gaps dominate all later ones."""
    fn = get_test_function("hartmann")
    std = fit_standardizer(fn.measure)
    truth = hartmann_true_subspace(standardizer=std)
    t0 = time.perf_counter()
    s = generate_samples(fn, 100_000, seed=RUN_SEED)
    checks = []
    for method in ("sir", "save"):
        est = estimate(s, 20, "equal-count", method, 2)
        dist = subspace_distance(est.subspace.basis, truth)
        rel = gap_profile(est.spectrum).relative
        leading, later = min(rel[0], rel[1]), float(np.max(rel[2:]))
        checks.append((f"{method}: subspace distance {dist:.4f} < 0.2", dist < 0.2))
        checks.append((
            f"{method}: leading gaps {leading:.4f} dominate later gaps {later:.5f}",
            leading > later,
        ))
    elapsed = time.perf_counter() - t0
    checks.append((f"runtime {elapsed:.1f}s < 60s", elapsed < 60.0))
    report(5, "Hartmann two-dimensional structure", checks)


def test_criterion_6_gap_dependence(truth_cache):
    """Subspace error tracks the inverse spectral gap: truncating the
    Hartmann SIR spectrum at the huge first gap beats truncating at the
    flat tail, over 10 trials at N=1e4."""
    common = dict(
        function="hartmann",
        method="sir",
        sizes=(10_000,),
        trials=10,
        seed=GAP_STUDY_SEED,
        n_slices=20,
        scheme="equal-count",
        truth_size=200_000,
        truth_seed=777,
    )
    study_n1 = run_convergence(StudyConfig(n_components=1, **common), truth_cache)
    study_n3 = run_convergence(StudyConfig(n_components=3, **common), truth_cache)
    result = gap_dependence_check(study_n1, study_n3)
    d1, d3 = result.mean_dist_large_gap, result.mean_dist_small_gap
    report(6, "gap dependence of the subspace error", [
        (f"mean distance at n=1 ({d1:.4f}) strictly below n=3 ({d3:.4f})",
         result.passed and not result.tied),
    ])


def test_criterion_7_oracle_equivalence():
    """Both estimator matrices agree with literal loop transcriptions of
    the algorithms on 50 random small configurations."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(10, 201))
        m = int(rng.integers(1, 6))
        n_slices = int(rng.integers(1, 9))
        scheme = "fixed" if rng.random() < 0.5 else "equal-count"
        if scheme == "equal-count":
            n_slices = min(n_slices, n)
        y = rng.standard_normal(n)
        if rng.random() < 0.3:
            y = np.round(y, 1)
        s = standardized_set(rng.standard_normal((n, m)), y)
        p = make_partition(s.outputs, n_slices, scheme)
        stats = slice_stats(s, p)
        sir_err = np.max(np.abs(
            sir_matrix(stats) - sir_matrix_oracle(s.inputs, s.outputs, p.boundaries)
        ))
        save_err = np.max(np.abs(
            save_matrix(stats) - save_matrix_oracle(s.inputs, s.outputs, p.boundaries)
        ))
        worst = max(worst, float(sir_err), float(save_err))
    report(7, "oracle equivalence on 50 random configurations", [
        (f"worst max-norm deviation {worst:.2e} <= 1e-12", worst <= 1e-12),
    ])


def test_criterion_8_property_suite(tmp_path):
    """Compact battery of the cross-module invariants."""
    rng = np.random.default_rng(808)
    checks = []

    # projector idempotence
    q = orthonormal_basis(rng.standard_normal((6, 3)))
    P = q @ q.T
    checks.append(("projector idempotence",
                   np.max(np.abs(P @ P - P)) < 1e-10))

    # metric axioms spot-check
    a = orthonormal_basis(rng.standard_normal((5, 2)))
    b = orthonormal_basis(rng.standard_normal((5, 2)))
    c = orthonormal_basis(rng.standard_normal((5, 2)))
    dab = subspace_distance(a, b)
    metric_ok = (
        abs(dab - subspace_distance(b, a)) < 1e-13
        and subspace_distance(a, a) < 1e-12
        and dab <= subspace_distance(a, c) + subspace_distance(c, b) + 1e-12
        and 0.0 <= dab <= 1.0
    )
    checks.append(("subspace-distance metric axioms", metric_ok))

    # rotation equivariance of both estimators
    x = rng.standard_normal((400, 4))
    y = rng.standard_normal(400)
    Q = orthonormal_basis(rng.standard_normal((4, 4)))
    p = partition_equal_count(y, 5)
    rot_ok = True
    for matrix_fn in (sir_matrix, save_matrix):
        base = matrix_fn(slice_stats(standardized_set(x, y), p))
        rot = matrix_fn(slice_stats(standardized_set(x @ Q.T, y), p))
        rot_ok &= bool(np.max(np.abs(rot - Q @ base @ Q.T)) < 1e-10)
    checks.append(("rotation equivariance", rot_ok))

    # monotone-map slice invariance
    base_p = partition_equal_count(y, 6)
    mapped_p = partition_equal_count(np.expm1(y) + y**3, 6)
    mono_ok = np.array_equal(base_p.labels, mapped_p.labels)
    checks.append(("monotone-map slice invariance", mono_ok))

    # pooled-mean identity
    stats = slice_stats(standardized_set(x, y), base_p)
    pooled = stats.weights @ stats.means
    checks.append(("pooled-mean identity",
                   np.max(np.abs(pooled - x.mean(axis=0))) < 1e-12))

    # ridge property of the built-in models
    ridge_ok = True
    for name in ("quad1", "quad3", "hartmann"):
        fn = get_test_function(name)
        A = fn.true_subspace.basis
        P_perp = np.eye(fn.dimension) - A @ A.T
        for _ in range(30):
            z = rng.standard_normal(fn.dimension) * 0.5
            z2 = z + P_perp @ rng.standard_normal(fn.dimension)
            f1, f2 = fn.evaluator(z)[0], fn.evaluator(z2)[0]
            ridge_ok &= bool(abs(f1 - f2) <= 1e-10 * max(1.0, abs(f1)))
    checks.append(("ridge property of test functions", ridge_ok))

    # seed determinism end to end
    fn = get_test_function("quad3")
    s1 = generate_samples(fn, 300, seed=99)
    s2 = generate_samples(fn, 300, seed=99)
    e1 = estimate(s1, 8, "equal-count", "sir", 3)
    e2 = estimate(s2, 8, "equal-count", "sir", 3)
    checks.append(("seed determinism",
                   np.array_equal(e1.spectrum.eigenvalues, e2.spectrum.eigenvalues)))

    # CSV round-trip exactness
    s = generate_samples(get_test_function("hartmann"), 50, seed=1)
    path = tmp_path / "round.csv"
    write_samples_csv(path, s.inputs, s.outputs)
    back = read_samples_csv(path)
    checks.append(("CSV round-trip",
                   np.array_equal(back.inputs, s.inputs)
                   and np.array_equal(back.outputs, s.outputs)))

    report(8, "cross-module property battery", checks)
