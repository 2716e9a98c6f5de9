"""Acceptance suite: one test per release criterion, tolerances pinned.

Criteria 5 through 8 run the full desk-scale pipeline (bivariate normal
data, the standard fully connected architecture, five epochs of batch-100
training) and take a few minutes in total.  Each test prints a PASS line
with the measured quantities.
"""

import numpy as np
import pytest

from gantrace.autodiff import vjp_gradient_call_count
from gantrace.config import DatasetSpec, ExperimentConfig
from gantrace.datasets import make_digit_images, sample_normal2d
from gantrace.experiments import (
    prepare_seed_run,
    run_data_cleansing,
    run_estimation_accuracy,
    select_harmful,
    sign_test_greater,
)
from gantrace.influence import QueryVector, infer_linear_influence
from gantrace.metrics import (
    ClassifierSettings,
    MetricContext,
    MetricSpec,
    average_log_likelihood,
    build_query_vector,
    inception_score_from_posteriors,
    metric_value,
    train_classifier,
)
from gantrace.models import FcGan, GanArchitecture, joint_gradient
from gantrace.oracle import counterfactual_retrain
from gantrace.training import (
    TrainingSettings,
    load_trace,
    run_training,
    save_trace,
    trace_checksum,
)
from test_metrics import brute_force_all, with_exact_moments
from toys import fid, kink_safe_params


def desk_config(**overrides) -> ExperimentConfig:
    base = dict(
        dataset=DatasetSpec(kind="normal2d", n_train=1000),
        architecture=GanArchitecture(latent_dim=10, data_dim=2, hidden_gen=32,
                                     hidden_disc=64, l2_rate=1e-3),
        training=TrainingSettings(epochs=5, batch_size=100, lr_gen=1e-3,
                                  lr_disc=1e-3, seed=0),
        metrics=("all",),
        n_reference=1000,
        n_test=1000,
        k_epochs=(1,),
        n_targets=50,
        n_permutations=1000,
        n_harmful=(100,),
        methods=("influence", "random"),
        n_seeds=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def desk_run():
    return prepare_seed_run(desk_config(), 0)


def test_criterion_01_single_step_exactness():
    # Full-dataset batches make each epoch one step, so tracing one epoch
    # back isolates the final step, where the estimator is exact.
    gan = FcGan(GanArchitecture(latent_dim=10, data_dim=2, hidden_gen=32,
                                hidden_disc=64, l2_rate=1e-3))
    data = sample_normal2d(100, np.random.default_rng(1))
    trace = run_training(gan, data, TrainingSettings(
        epochs=2, batch_size=100, lr_gen=1e-3, lr_disc=1e-3, seed=2))
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        j = int(rng.integers(0, 100))
        query = QueryVector(rng.standard_normal(gan.dim_params), gan.dim_gen)
        estimate = infer_linear_influence(gan, trace, data, query,
                                          targets=[j], k_epochs=1).scores[j]
        truth = float(query.data @ counterfactual_retrain(gan, trace, data, j,
                                                          k_epochs=1).delta)
        worst = max(worst, abs(estimate - truth) / abs(truth))
    assert worst <= 1e-8
    print(f"PASS criterion 1: single-step exactness, worst rel err {worst:.2e} <= 1e-8")


def test_criterion_02_second_order_correctness():
    gan = FcGan(GanArchitecture(latent_dim=6, data_dim=2, hidden_gen=12,
                                hidden_disc=16, l2_rate=1e-3))
    assert gan.dim_params <= 500
    rng = np.random.default_rng(4)
    latents = rng.standard_normal((8, 6))
    rows = sample_normal2d(8, rng)
    worst = 0.0
    for _ in range(3):
        # Finite differences are only a valid oracle away from relu kinks.
        params = kink_safe_params(gan, latents, rows, rng)
        query = rng.standard_normal(gan.dim_params)
        got, _ = gan.joint_gradient_vjp(query, params, latents, rows, len(latents))
        eps = 1e-4
        fd = np.zeros_like(params)
        for i in range(len(params)):
            plus, minus = params.copy(), params.copy()
            plus[i] += eps
            minus[i] -= eps
            fd[i] = query @ (joint_gradient(gan, plus, latents, rows)
                             - joint_gradient(gan, minus, latents, rows)) / (2 * eps)
        worst = max(worst, np.linalg.norm(got - fd) / np.linalg.norm(fd))
    assert worst < 1e-5
    print(f"PASS criterion 2: vector-Jacobian product vs FD oracle at 3 random points, "
          f"worst rel err {worst:.2e} < 1e-5 (d_theta={gan.dim_params})")


def test_criterion_03_query_vector_correctness(desk_run):
    config = desk_config()
    gan = config.problem()
    query = build_query_vector(MetricSpec("all"), gan, desk_run.trace.final_params,
                               desk_run.reference_latents, desk_run.context)
    assert np.array_equal(query.data[gan.dim_gen:], np.zeros(gan.dim_disc))

    def value(params):
        generated = gan.generator_forward(params, desk_run.reference_latents)
        return average_log_likelihood(desk_run.context.real_data, generated, 1.0)

    rng = np.random.default_rng(42)
    coords = rng.choice(gan.dim_gen, size=20, replace=False)
    eps = 1e-5
    worst = 0.0
    params = desk_run.trace.final_params
    for i in coords:
        plus, minus = params.copy(), params.copy()
        plus[i] += eps
        minus[i] -= eps
        fd = (value(plus) - value(minus)) / (2 * eps)
        worst = max(worst, abs(query.data[i] - fd) / abs(fd))
    assert worst < 1e-4
    print(f"PASS criterion 3: likelihood query vs FD over 20 coordinates, "
          f"worst rel err {worst:.2e} < 1e-4; disc block exactly zero")


def test_criterion_04_metric_oracles():
    rng = np.random.default_rng(5)
    # (a) KDE likelihood against the brute-force double loop.
    real = rng.standard_normal((8, 2))
    generated = rng.standard_normal((8, 2))
    fast = average_log_likelihood(real, generated, 1.0)
    slow = brute_force_all(real, generated, 1.0)
    assert fast == pytest.approx(slow, rel=1e-10)
    # (b) inception score closed forms.
    assert inception_score_from_posteriors(np.tile(np.eye(10), (3, 1))) == \
        pytest.approx(10.0, abs=1e-9)
    assert inception_score_from_posteriors(np.full((12, 10), 0.1)) == \
        pytest.approx(1.0, abs=1e-9)
    # (c) Frechet distance: hand-specified Gaussians and self-distance.
    mean_a, mean_b = np.array([0.5, -0.2]), np.array([-1.0, 0.4])
    var_a, var_b = np.array([1.5, 0.5]), np.array([0.7, 2.0])
    sample_a = with_exact_moments(50, mean_a, np.diag(var_a), seed=10)
    sample_b = with_exact_moments(50, mean_b, np.diag(var_b), seed=11)
    closed = (mean_a - mean_b) @ (mean_a - mean_b) \
        + np.sum((np.sqrt(var_a) - np.sqrt(var_b)) ** 2)
    measured = fid(sample_a, sample_b)
    assert measured == pytest.approx(closed, abs=1e-6)
    feats = rng.standard_normal((30, 4))
    self_distance = fid(feats, feats)
    assert self_distance <= 1e-8
    print(f"PASS criterion 4: likelihood oracle rel {abs(fast - slow) / abs(slow):.1e}; "
          f"IS closed forms exact; FID vs closed form {abs(measured - closed):.1e}, "
          f"self-distance {self_distance:.1e}")


def test_criterion_05_estimation_accuracy_beats_random(desk_run):
    report = run_estimation_accuracy(desk_config(), seeds=[0])
    row = report.rows[0]
    assert row.metric == "all" and row.k_epochs == 1 and row.n_targets == 50
    assert row.tau > row.threshold
    print(f"PASS criterion 5: tau {row.tau:.4f} > 97.5th permutation percentile "
          f"{row.threshold:.4f} (p={row.p_value:.4f}, jaccard={row.jaccard:.3f})")


def test_criterion_06_accuracy_degrades_with_trace_depth():
    report = run_estimation_accuracy(desk_config(k_epochs=(1, 5)),
                                     seeds=[0, 1, 2, 3, 4])
    shallow, deep = (np.mean([row.tau for row in report.rows if row.k_epochs == k])
                     for k in (1, 5))
    assert shallow >= deep
    print(f"PASS criterion 6: mean tau over 5 seeds, k=1 {shallow:.4f} >= k=5 {deep:.4f}")


def test_criterion_07_approximation_error_decays_with_learning_rate():
    gan = FcGan(GanArchitecture(latent_dim=10, data_dim=2, hidden_gen=32,
                                hidden_disc=64, l2_rate=1e-3))
    data = sample_normal2d(80, np.random.default_rng(7))
    query = QueryVector(np.random.default_rng(8).standard_normal(gan.dim_params),
                        gan.dim_gen)
    gaps = {}
    first_batch = None
    for lr in (1e-3, 5e-4, 2.5e-4):
        settings = TrainingSettings(epochs=1, batch_size=20, lr_gen=lr,
                                    lr_disc=lr, seed=9)
        trace = run_training(gan, data, settings)
        # Same seed, so the first batch (20 instances, each followed by
        # three more steps) is identical across the three rates.
        batch = [int(j) for j in trace.records[0].batch_indices]
        first_batch = batch if first_batch is None else first_batch
        assert batch == first_batch and trace.n_steps == 4
        table = infer_linear_influence(gan, trace, data, query,
                                       targets=batch, k_epochs=1)
        gaps[lr] = {}
        for j in batch:
            truth = float(query.data @ counterfactual_retrain(
                gan, trace, data, j, k_epochs=1).delta)
            gaps[lr][j] = abs(table.scores[j] - truth)
    halved_twice = 0
    for j in first_batch:
        first = gaps[5e-4][j] < 0.5 * gaps[1e-3][j]
        second = gaps[2.5e-4][j] < 0.5 * gaps[5e-4][j]
        halved_twice += first and second
    fraction = halved_twice / len(first_batch)
    assert fraction >= 0.8
    print(f"PASS criterion 7: gap halves at each rate halving for "
          f"{halved_twice}/{len(first_batch)} instances (need >= 80%)")


def test_criterion_08_data_cleansing_beats_random_and_image_smoke():
    report = run_data_cleansing(desk_config(), seeds=[0, 1, 2, 3, 4])
    proposed = report.improvements("influence", "all", 100)
    random_sel = report.improvements("random", "all", 100)
    p_value = sign_test_greater(proposed - random_sel)
    assert proposed.mean() > random_sel.mean()
    assert p_value < 0.05

    # Image-toy smoke: glyph data with planted junk, influence on the
    # Frechet distance, last-epoch cleanse; no numerical failure and the
    # untouched-instance-zero invariant on a partial window.
    rng = np.random.default_rng(0)
    clean, _ = make_digit_images(180, 4, 0.15, rng)
    junk = rng.uniform(-0.999, 0.999, size=(20, 64))
    data = np.vstack([clean, junk])
    gan = FcGan(GanArchitecture(latent_dim=10, data_dim=64, hidden_gen=32,
                                hidden_disc=32, l2_rate=1e-3))
    trace = run_training(gan, data, TrainingSettings(
        epochs=4, batch_size=50, lr_gen=3e-3, lr_disc=3e-3, seed=0))
    ref_data, ref_labels = make_digit_images(200, 4, 0.15, np.random.default_rng(77))
    classifier = train_classifier(ref_data, ref_labels,
                                  ClassifierSettings(hidden=(64, 32), epochs=20), seed=1)
    context = MetricContext(real_data=ref_data, classifier=classifier)
    latents = np.random.default_rng(78).standard_normal((200, 10))
    spec = MetricSpec("fid")
    query = build_query_vector(spec, gan, trace.final_params, latents, context)
    table = infer_linear_influence(gan, trace, data, query, k_epochs=1)
    assert all(np.isfinite(v) for v in table.scores.values())
    selected = select_harmful(table, spec, 20)
    assert len(selected) > 0
    cleansed = counterfactual_retrain(gan, trace, data,
                                      set(int(i) for i in selected), k_epochs=1)
    before = metric_value(spec, gan, trace.final_params, latents, context)
    after = metric_value(spec, gan, cleansed.params, latents, context)
    assert np.isfinite(before) and np.isfinite(after)

    partial = infer_linear_influence(gan, trace, data, query,
                                     start_step=trace.n_steps - 2)
    touched = set(int(j) for record in trace.records[-2:]
                  for j in record.batch_indices)
    untouched = [j for j in range(200) if j not in touched]
    assert untouched and all(partial.scores[j] == 0.0 for j in untouched)
    print(f"PASS criterion 8: cleansing improvement {proposed.mean():+.2e} (proposed) vs "
          f"{random_sel.mean():+.2e} (random), sign-test p={p_value:.4f}; image smoke "
          f"FID {before:.3f} -> {after:.3f}, {len(untouched)} untouched scores exactly 0")


def test_criterion_09_determinism_and_trace_integrity(desk_run, tmp_path):
    config = desk_config()
    gan = config.problem()
    rerun = prepare_seed_run(config, 0)
    first_sum = trace_checksum(desk_run.trace)
    assert trace_checksum(rerun.trace) == first_sum
    assert save_trace(desk_run.trace, tmp_path / "trace") == first_sum
    loaded = load_trace(tmp_path / "trace")
    for trace in (desk_run.trace, loaded):
        unmodified = counterfactual_retrain(gan, trace, desk_run.dataset,
                                            excluded=(), k_epochs=None)
        assert np.array_equal(unmodified.params, desk_run.trace.final_params)
    print(f"PASS criterion 9: checksum stable ({first_sum[:12]}...), the no-exclusion "
          f"replay of the trace and of its saved copy reproduce final parameters bit-exactly")


def test_criterion_10_one_sweep_cost_contract(desk_run):
    config = desk_config()
    gan = config.problem()
    query = build_query_vector(MetricSpec("all"), gan, desk_run.trace.final_params,
                               desk_run.reference_latents, desk_run.context)
    before = vjp_gradient_call_count()
    infer_linear_influence(gan, desk_run.trace, desk_run.dataset, query, k_epochs=5)
    full = vjp_gradient_call_count() - before
    assert full == desk_run.trace.n_steps
    before = vjp_gradient_call_count()
    infer_linear_influence(gan, desk_run.trace, desk_run.dataset, query,
                           targets=[1, 2, 3], k_epochs=5)
    subset = vjp_gradient_call_count() - before
    assert subset == desk_run.trace.n_steps
    print(f"PASS criterion 10: scoring all {desk_run.trace.n_train} instances used exactly "
          f"{full} vector-Jacobian products (= steps), same as for 3 targets ({subset})")
