import numpy as np
import pytest

from gantrace.models import FcGan, GanArchitecture, _logistic
from gantrace.oracle import counterfactual_retrain
from gantrace.training import (
    DivergenceError,
    TrainingSettings,
    asgd_step,
    block_rates,
    latents_from_seed,
    learning_rate_schedule,
    load_trace,
    minibatch_schedule,
    run_training,
    save_trace,
    step_records,
    trace_checksum,
)
from toys import QuadraticGameProblem, bilinear_game


@pytest.fixture
def gan():
    return FcGan(GanArchitecture(latent_dim=3, data_dim=2, hidden_gen=4,
                                 hidden_disc=5, l2_rate=1e-3))


@pytest.fixture
def data():
    rng = np.random.default_rng(0)
    chol = np.linalg.cholesky(np.array([[1.0, 0.8], [0.8, 1.0]]))
    return 1.0 + rng.standard_normal((40, 2)) @ chol.T


def test_schedule_partitions_each_epoch():
    batches, starts = minibatch_schedule(4, 2, 1, np.random.default_rng(1))
    assert starts == [0]
    assert len(batches) == 2
    assert sorted(np.concatenate(batches).tolist()) == [0, 1, 2, 3]
    assert set(batches[0]) & set(batches[1]) == set()


def test_schedule_same_seed_identical():
    a, _ = minibatch_schedule(20, 6, 3, np.random.default_rng(2))
    b, _ = minibatch_schedule(20, 6, 3, np.random.default_rng(2))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_schedule_counts_each_index_once_per_epoch():
    batches, starts = minibatch_schedule(1000, 100, 5, np.random.default_rng(3))
    assert len(batches) == 50 and starts == [0, 10, 20, 30, 40]
    counts = np.bincount(np.concatenate(batches), minlength=1000)
    assert np.all(counts == 5)


def test_schedule_short_final_batch():
    batches, _ = minibatch_schedule(10, 4, 2, np.random.default_rng(4))
    assert [len(b) for b in batches] == [4, 4, 2, 4, 4, 2]
    counts = np.bincount(np.concatenate(batches), minlength=10)
    assert np.all(counts == 2)


def test_learning_rate_modes():
    simultaneous = TrainingSettings(epochs=1, batch_size=2, lr_gen=1e-3, lr_disc=1e-3)
    assert learning_rate_schedule(simultaneous, 3) == [(1e-3, 1e-3)] * 3
    alternating = TrainingSettings(epochs=1, batch_size=2, lr_gen=1e-3, lr_disc=1e-3,
                                   mode="alternating")
    rates = learning_rate_schedule(alternating, 4)
    assert rates == [(1e-3, 0.0), (0.0, 1e-3), (1e-3, 0.0), (0.0, 1e-3)]
    disc_first = TrainingSettings(epochs=1, batch_size=2, lr_gen=1e-3, lr_disc=1e-3,
                                  mode="alternating", first_update="discriminator")
    assert learning_rate_schedule(disc_first, 2) == [(0.0, 1e-3), (1e-3, 0.0)]


def test_alternating_trace_has_exactly_one_zero_rate(gan, data):
    settings = TrainingSettings(epochs=2, batch_size=10, lr_gen=1e-3, lr_disc=1e-3,
                                mode="alternating", seed=5)
    trace = run_training(gan, data, settings)
    for record in trace.records:
        assert (record.lr_gen == 0.0) != (record.lr_disc == 0.0)


def test_zero_learning_rates_freeze_parameters(gan, data):
    settings = TrainingSettings(epochs=2, batch_size=20, lr_gen=0.0, lr_disc=0.0, seed=6)
    trace = run_training(gan, data, settings)
    first = trace.records[0].params
    assert np.array_equal(trace.final_params, first)
    assert all(np.array_equal(r.params, first) for r in trace.records)


def test_single_epoch_full_batch_records_one_step(gan, data):
    settings = TrainingSettings(epochs=1, batch_size=40, lr_gen=1e-3, lr_disc=1e-3, seed=7)
    trace = run_training(gan, data, settings)
    assert trace.n_steps == 1


def test_asgd_step_zero_gradient_is_identity():
    problem = bilinear_game()
    params = np.zeros(2)  # gradient of a*b vanishes at the origin
    out = asgd_step(problem, params, np.zeros((2, 1)), np.zeros((2, 1)), 1e-2, 1e-2)
    assert np.array_equal(out, params)


def test_asgd_step_masks_discriminator_block(gan, data):
    rng = np.random.default_rng(8)
    params = gan.init_params(rng)
    z = rng.standard_normal((5, 3))
    out = asgd_step(gan, params, data[:5], z, 1e-3, 0.0)
    assert np.array_equal(out[gan.dim_gen:], params[gan.dim_gen:])
    assert not np.array_equal(out[:gan.dim_gen], params[:gan.dim_gen])


def test_block_rates_are_one_shared_read_only_vector():
    rates = block_rates(3, 5, 0.1, 0.0)
    assert np.array_equal(rates, [0.1, 0.1, 0.1, 0.0, 0.0])
    assert block_rates(3, 5, 0.1, 0.0) is rates
    assert not rates.flags.writeable
    with pytest.raises(ValueError):
        rates[0] = 1.0


def test_asgd_step_returns_a_fresh_snapshot_each_step(gan, data):
    rng = np.random.default_rng(12)
    params = gan.init_params(rng)
    z = rng.standard_normal((5, 3))
    first = asgd_step(gan, params, data[:5], z, 1e-3, 1e-3)
    kept = first.copy()
    second = asgd_step(gan, first, data[5:10], z, 1e-3, 1e-3)
    assert not np.shares_memory(first, params) and not np.shares_memory(second, first)
    assert first.flags.writeable and np.array_equal(first, kept)


def test_asgd_step_matches_hand_computation_on_quadratic():
    # gen loss 0.5 a^2, disc loss 0.5 b^2 (identity quadratics, no coupling):
    # one step maps (a, b) to (a - lr_g * a, b - lr_d * (b + mean data term)).
    gen_quad = np.diag([1.0, 0.0])
    disc_quad = np.diag([0.0, 1.0])
    problem = QuadraticGameProblem(1, 1, gen_quad, disc_quad, data_map=[[1.0]])
    params = np.array([0.8, -0.4])
    rows = np.array([[0.5], [0.1]])
    latents = np.zeros((2, 2))
    out = asgd_step(problem, params, rows, latents, 0.1, 0.2)
    data_grad = np.mean(rows)  # d/db of (1/2)(x1 b + x2 b) with 1/|Z|
    expected = np.array([0.8 - 0.1 * 0.8, -0.4 - 0.2 * (-0.4 + data_grad)])
    assert np.allclose(out, expected, rtol=1e-14)


def test_training_is_bit_reproducible(gan, data):
    settings = TrainingSettings(epochs=2, batch_size=10, lr_gen=1e-3, lr_disc=1e-3, seed=9)
    a = run_training(gan, data, settings)
    b = run_training(gan, data, settings)
    assert trace_checksum(a) == trace_checksum(b)
    assert np.array_equal(a.final_params, b.final_params)


def test_snapshot_consistency_and_replay(gan, data):
    settings = TrainingSettings(epochs=2, batch_size=10, lr_gen=1e-3, lr_disc=1e-3, seed=10)
    trace = run_training(gan, data, settings)
    for before, after in zip(trace.records, trace.records[1:]):
        latents = latents_from_seed(before.latent_seed, len(before.batch_indices), 3)
        stepped = asgd_step(gan, before.params, data[before.batch_indices], latents,
                            before.lr_gen, before.lr_disc)
        assert np.array_equal(stepped, after.params)
    replayed = counterfactual_retrain(gan, trace, data, (), k_epochs=None).params
    assert np.array_equal(replayed, trace.final_params)


@pytest.mark.parametrize("mode", ["simultaneous", "alternating"])
def test_every_snapshot_replays_exactly_through_the_loop(gan, data, mode):
    # Batches of 7 leave a short final batch in each epoch of the 40 rows.
    settings = TrainingSettings(epochs=3, batch_size=7, lr_gen=1e-2, lr_disc=1e-2,
                                mode=mode, seed=16)
    trace = run_training(gan, data, settings)
    records = trace.records
    assert all(record._latents is None for record in records)   # training keeps none
    checksum = trace_checksum(trace)
    last = len(records) - 1
    for s, t in [(0, 1), (0, 9), (3, 4), (5, 11), (6, last), (last - 1, last)]:
        replayed = step_records(gan, records[s].params, records[s:t], data)
        assert np.array_equal(replayed, records[t].params), (s, t)
    for s in (0, 6, last):
        replayed = step_records(gan, records[s].params, records[s:], data)
        assert np.array_equal(replayed, trace.final_params), s
    # The replays only read the trace.
    assert trace_checksum(trace) == checksum


def test_latent_regeneration_is_bit_exact():
    a = latents_from_seed(123456789, 7, 4)
    b = latents_from_seed(123456789, 7, 4)
    assert np.array_equal(a, b)


def test_discriminator_output_drifts_into_unit_interval(gan, data):
    settings = TrainingSettings(epochs=3, batch_size=10, lr_gen=1e-2, lr_disc=1e-2, seed=11)
    trace = run_training(gan, data, settings)
    start = _logistic(gan.discriminator_logits(trace.records[0].params, data)).mean()
    end = _logistic(gan.discriminator_logits(trace.final_params, data)).mean()
    assert 0.0 < end < 1.0
    assert end != start
    rerun = run_training(gan, data, settings)
    assert np.array_equal(rerun.final_params, trace.final_params)


def test_divergence_guard(gan, data):
    settings = TrainingSettings(epochs=3, batch_size=10, lr_gen=1e6, lr_disc=1e6, seed=12)
    with pytest.raises(DivergenceError, match="step"):
        run_training(gan, data, settings)


def test_trace_save_load_roundtrip(gan, data, tmp_path):
    settings = TrainingSettings(epochs=2, batch_size=7, lr_gen=1e-3, lr_disc=1e-3, seed=13)
    trace = run_training(gan, data, settings, fingerprint="abc123")
    assert save_trace(trace, tmp_path / "trace") == trace_checksum(trace)
    loaded = load_trace(tmp_path / "trace")
    assert loaded.fingerprint == "abc123"
    assert loaded.epoch_starts == trace.epoch_starts
    assert np.array_equal(loaded.final_params, trace.final_params)
    for a, b in zip(trace.records, loaded.records):
        assert np.array_equal(a.params, b.params)
        assert np.array_equal(a.batch_indices, b.batch_indices)
        assert (a.lr_gen, a.lr_disc, a.latent_seed) == (b.lr_gen, b.lr_disc, b.latent_seed)
        # Every snapshot is a row of the one stored array.
        assert b.params.base is loaded.final_params.base is not None
    assert trace_checksum(loaded) == trace_checksum(trace)


def test_record_latents_are_the_seeded_batch_kept_read_only(gan, data, tmp_path):
    settings = TrainingSettings(epochs=2, batch_size=7, lr_gen=1e-3, lr_disc=1e-3, seed=14)
    trace = run_training(gan, data, settings)
    save_trace(trace, tmp_path / "trace")
    loaded = load_trace(tmp_path / "trace")
    # The loaded records draw their batches during this replay.
    replayed = counterfactual_retrain(gan, loaded, data, (), k_epochs=None).params
    assert np.array_equal(replayed, trace.final_params)
    for record in trace.records + loaded.records:
        batch = record.latents(gan.latent_dim)
        expected = latents_from_seed(record.latent_seed, len(record.batch_indices),
                                     gan.latent_dim)
        assert np.array_equal(batch, expected)
        assert record.latents(gan.latent_dim) is batch
        assert not batch.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            batch[0, 0] = 0.0


@pytest.mark.parametrize("manifest", [None, "version_1", "version_2"])
def test_save_keeps_steps_and_final_bin_of_no_version_1_trace(gan, data, tmp_path, manifest):
    # The writer deletes nothing, not even the files of a version-1 trace.
    settings = TrainingSettings(epochs=2, batch_size=7, lr_gen=1e-3, lr_disc=1e-3, seed=15)
    trace = run_training(gan, data, settings)
    directory = tmp_path / "out"
    if manifest == "version_2":
        save_trace(trace, directory)
    (directory / "steps").mkdir(parents=True)
    if manifest == "version_1":
        (directory / "manifest.json").write_text('{"version": 1}')
    (directory / "steps" / "my_notes.txt").write_text("mine")
    (directory / "final.bin").write_bytes(b"mine too")
    save_trace(trace, directory)
    assert (directory / "steps" / "my_notes.txt").read_text() == "mine"
    assert (directory / "final.bin").read_bytes() == b"mine too"
    assert trace_checksum(load_trace(directory)) == trace_checksum(trace)
