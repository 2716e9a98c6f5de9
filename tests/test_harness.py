import hashlib
import json
import re
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st
from scipy import ndimage, stats

from gantrace.config import (
    _KEYS,
    DatasetSpec,
    ExperimentConfig,
    load_config,
    synthesize_dataset,
    trace_fingerprint,
)
from gantrace.datasets import (
    _resize_weights,
    dataset_checksum,
    glyph_templates,
    load_idx_images,
    make_digit_images,
    read_idx,
    sample_normal2d,
)
from gantrace.experiments import (
    critical_set,
    evaluation_context,
    evaluation_set,
    jaccard_critical,
    kendall_tau,
    permutation_test_tau,
    seed_dataset,
    select_harmful,
    sign_test_greater,
)
from gantrace.influence import InfluenceTable
from gantrace.metrics import ClassifierSettings, MetricSpec
from gantrace.models import GanArchitecture
from gantrace.training import TrainingSettings


# -- datasets ---------------------------------------------------------------------

def test_normal2d_moments_at_scale():
    data = sample_normal2d(100_000, np.random.default_rng(0))
    assert np.abs(data.mean(axis=0) - 1.0).max() < 0.02
    cov = np.cov(data, rowvar=False)
    assert abs(cov[0, 1] - 0.8) < 0.02
    assert abs(cov[0, 0] - 1.0) < 0.02


def test_normal2d_deterministic():
    a = sample_normal2d(100, np.random.default_rng(1))
    b = sample_normal2d(100, np.random.default_rng(1))
    assert np.array_equal(a, b)


def test_digit_images_shape_range_and_labels():
    data, labels = make_digit_images(50, n_classes=4, noise=0.15,
                                     rng=np.random.default_rng(2))
    assert data.shape == (50, 64)
    assert labels.shape == (50,) and labels.max() < 4
    assert np.all(np.abs(data) < 1.0)
    templates = glyph_templates(4)
    # Rendered images stay closest to their own template.
    dists = np.linalg.norm(data[:, None, :] - templates[None, :, :], axis=2)
    assert (dists.argmin(axis=1) == labels).mean() > 0.95


def write_idx(path, array):
    array = np.asarray(array)
    header = struct.pack(">BBBB", 0, 0, 0x08, array.ndim)
    header += struct.pack(">" + "I" * array.ndim, *array.shape)
    path.write_bytes(header + array.astype(np.uint8).tobytes())


def test_idx_roundtrip_and_downsampling(tmp_path):
    rng = np.random.default_rng(3)
    images = rng.integers(0, 256, size=(5, 28, 28)).astype(np.uint8)
    labels = rng.integers(0, 10, size=5).astype(np.uint8)
    write_idx(tmp_path / "imgs.idx", images)
    write_idx(tmp_path / "labels.idx", labels)
    assert np.array_equal(read_idx(tmp_path / "imgs.idx"), images)
    data, got_labels = load_idx_images(tmp_path / "imgs.idx", tmp_path / "labels.idx", side=8)
    assert data.shape == (5, 64)
    assert np.all(np.abs(data) <= 0.999)
    assert np.array_equal(got_labels, labels)


def test_idx_rejects_bad_magic(tmp_path):
    (tmp_path / "bad.idx").write_bytes(b"\x01\x02\x03\x04rest")
    with pytest.raises(ValueError, match="magic"):
        read_idx(tmp_path / "bad.idx")


def test_dataset_checksum_sensitivity():
    data = sample_normal2d(10, np.random.default_rng(4))
    other = data.copy()
    other[3, 1] += 1e-12
    assert dataset_checksum(data) != dataset_checksum(other)
    assert dataset_checksum(data) == dataset_checksum(data.copy())


# -- rank statistics ----------------------------------------------------------------

def test_kendall_tau_identical_orders():
    scores = np.array([0.3, -1.2, 2.2, 0.9])
    assert kendall_tau(scores, scores) == 1.0


def test_kendall_tau_reversed_orders():
    a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    assert kendall_tau(a, -a) == pytest.approx(-1.0, abs=1e-14)


def brute_force_tau_b(a, b):
    n = len(a)
    concordant = discordant = ties_a = ties_b = 0
    for i in range(n):
        for j in range(i + 1, n):
            da, db = a[i] - a[j], b[i] - b[j]
            if da == 0 and db == 0:
                ties_a += 1
                ties_b += 1
            elif da == 0:
                ties_a += 1
            elif db == 0:
                ties_b += 1
            elif da * db > 0:
                concordant += 1
            else:
                discordant += 1
    pairs = n * (n - 1) / 2
    denom = np.sqrt((pairs - ties_a) * (pairs - ties_b))
    return (concordant - discordant) / denom


@hyp_settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=12),
       st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=12))
def test_kendall_tau_matches_pair_counting_with_ties(a, b):
    n = min(len(a), len(b))
    a, b = np.array(a[:n], dtype=float), np.array(b[:n], dtype=float)
    if np.all(a == a[0]) or np.all(b == b[0]):
        return  # undefined: no untied pairs on one side
    assert kendall_tau(a, b) == pytest.approx(brute_force_tau_b(a, b), rel=1e-12)


def test_jaccard_identical_scores():
    rng = np.random.default_rng(5)
    scores = rng.standard_normal(40)
    assert jaccard_critical(scores, scores.copy(), m=10) == 1.0


def test_jaccard_disjoint_critical_sets():
    est = np.concatenate([np.arange(20, 40), np.zeros(20) + 0.5])
    true = np.concatenate([np.zeros(20) + 0.5, np.arange(20, 40)])
    # Estimated extremes live in the first 20 positions, true extremes in
    # the last 20: the critical sets cannot overlap.
    est = np.concatenate([np.linspace(-5, 5, 20), np.full(20, 0.1)])
    true = np.concatenate([np.full(20, 0.1), np.linspace(-5, 5, 20)])
    assert jaccard_critical(est, true, m=10) == 0.0


def test_jaccard_matches_set_arithmetic():
    rng = np.random.default_rng(6)
    est, true = rng.standard_normal(30), rng.standard_normal(30)
    a, b = critical_set(est, 5), critical_set(true, 5)
    assert jaccard_critical(est, true, m=5) == len(a & b) / len(a | b)


def test_critical_set_tie_break_is_deterministic():
    scores = np.zeros(10)
    assert critical_set(scores, m=2) == {0, 1}  # lowest indices win both sides


def test_permutation_test_detects_perfect_agreement():
    rng = np.random.default_rng(7)
    truth = rng.standard_normal(50)
    result = permutation_test_tau(truth, truth, n_permutations=300,
                                  rng=np.random.default_rng(8))
    assert result.observed == 1.0
    assert result.observed > result.threshold
    assert result.p_value < 0.05


def test_sign_test_values():
    assert sign_test_greater([1.0, 2.0, 0.5, 0.1, 3.0]) == pytest.approx(0.03125)
    assert sign_test_greater([1.0, -2.0, 0.5, 0.1, 3.0]) > 0.05
    assert sign_test_greater([0.0, 0.0]) == 1.0


def test_sign_test_is_the_exact_binomial_tail():
    # Zeros are dropped, so each (wins, n) is n decided pairs among zeros.
    for n in range(1, 61):
        for wins in range(n + 1):
            differences = [1.0] * wins + [-1.0] * (n - wins) + [0.0] * (n % 3)
            expected = stats.binomtest(wins, n, 0.5, alternative="greater").pvalue
            assert sign_test_greater(differences) == pytest.approx(expected, rel=1e-12)
    assert sign_test_greater([]) == 1.0


# -- harmful selection ----------------------------------------------------------------

def make_table(scores):
    return InfluenceTable(metric_name="all",
                          scores={i: float(s) for i, s in enumerate(scores)},
                          k_epochs=1, query_fingerprint="x", trace_fingerprint="x")


def test_select_harmful_positive_rule_for_likelihood():
    table = make_table([3.0, -1.0, 2.0])
    chosen = select_harmful(table, MetricSpec("all"), 2)
    assert set(chosen) == {0, 2}


def test_select_harmful_negative_rule_for_fid():
    table = make_table([3.0, -1.0, 2.0])
    chosen = select_harmful(table, MetricSpec("fid"), 1)
    assert set(chosen) == {1}


def test_select_harmful_empty_request():
    table = make_table([3.0, -1.0, 2.0])
    assert len(select_harmful(table, MetricSpec("all"), 0)) == 0


def test_select_harmful_truncates_with_warning():
    table = make_table([3.0, -1.0, -2.0])
    with pytest.warns(RuntimeWarning, match="qualify"):
        chosen = select_harmful(table, MetricSpec("all"), 3)
    assert set(chosen) == {0}


def test_select_harmful_invariant_under_positive_rescaling():
    rng = np.random.default_rng(9)
    scores = rng.standard_normal(25)
    a = select_harmful(make_table(scores), MetricSpec("all"), 8)
    b = select_harmful(make_table(scores * 7.3), MetricSpec("all"), 8)
    assert np.array_equal(a, b)


def sorted_select_harmful(table, spec, n_harmful):
    """``select_harmful`` with Python's ``sorted``, the reference for its lexsort."""
    indices, scores = table.as_arrays()
    harmfulness = spec.harmful_sign * scores
    order = sorted(range(len(indices)), key=lambda i: (-harmfulness[i], indices[i]))
    return np.array([indices[i] for i in order if harmfulness[i] > 0][:n_harmful],
                    dtype=np.int64)


def sorted_critical_set(scores, m):
    """``critical_set`` with Python's ``sorted``, the reference for its lexsort."""
    by_descending = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    by_ascending = sorted(range(len(scores)), key=lambda i: (scores[i], i))
    return set(by_descending[:m]) | set(by_ascending[:m])


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("kind", ["all", "fid"])
def test_select_harmful_matches_the_sorted_order(tied, kind):
    rng = np.random.default_rng(10)
    for trial in range(20):
        scores = rng.standard_normal(60)
        if tied:
            scores = np.round(2.0 * scores) / 2.0   # many equal scores and zeros
        # Sparse keys, so the index tie-break differs from the position.
        table = InfluenceTable(metric_name=kind,
                               scores={3 * i + trial % 3: float(v) for i, v in enumerate(scores)},
                               k_epochs=1, query_fingerprint="x", trace_fingerprint="x")
        spec = MetricSpec(kind)
        qualified = int((spec.harmful_sign * scores > 0).sum())
        for n_harmful in (0, 5, qualified):
            got = select_harmful(table, spec, n_harmful)
            assert got.dtype == np.int64
            assert np.array_equal(got, sorted_select_harmful(table, spec, n_harmful))
        with pytest.warns(RuntimeWarning, match="qualify"):
            got = select_harmful(table, spec, qualified + 1)
        assert np.array_equal(got, sorted_select_harmful(table, spec, qualified + 1))


@pytest.mark.parametrize("tied", [False, True])
def test_critical_set_matches_the_sorted_order(tied):
    rng = np.random.default_rng(11)
    for _ in range(20):
        scores = rng.standard_normal(40)
        if tied:
            scores = np.round(scores)
        for m in (1, 5, 20):
            assert critical_set(scores, m) == sorted_critical_set(scores, m)


# -- configuration ---------------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent

# sha256 of each shipped and benchmark config as it loads: every field of
# the ExperimentConfig, as sorted JSON.  Run this file as a script to print
# the digests of the current code.
CONFIG_DIGESTS = {
    "configs/digits8_smoke.ini":
        "e943bb5cbfc633ec9029f5088eac42d3ec883e610f0b9834a9c819019182caf8",
    "configs/normal2d_desk.ini":
        "74345ae43779c5cbc7d3ec777108eb4e1a565b7c25386b656abe47052c6e83f0",
    "configs/normal2d_paper_accuracy.ini":
        "dd1bc372fbfcdfd56732a827c3b773544d5a2251041877bb1e308ffbacdf7217",
    "configs/normal2d_paper_cleansing.ini":
        "cb5ebed97bde440b37c0b1c6333d9ed162f4dc48a6e99c61923cd8bc39ac94d8",
    "perfbench/configs/desk.ini":
        "f94900a780d3c08ba61e3dbf95020484d443c78fe6a156b936f1dca0a24f7783",
    "perfbench/configs/digits.ini":
        "de472199c8dcc76a2edf7de283d7037d173a9b3f90c8b32dd000959a0f545c55",
}


def config_digest(path) -> str:
    return hashlib.sha256(json.dumps(asdict(load_config(path)), sort_keys=True)
                          .encode()).hexdigest()


def test_shipped_configs_load_to_pinned_settings():
    shipped = sorted(path.relative_to(ROOT).as_posix()
                     for pattern in ("configs/*.ini", "perfbench/configs/*.ini")
                     for path in ROOT.glob(pattern))
    assert shipped == sorted(CONFIG_DIGESTS)
    for name, digest in CONFIG_DIGESTS.items():
        assert config_digest(ROOT / name) == digest, name


CONFIG_TEXT = """
[dataset]
kind = normal2d
n_train = 120

[architecture]
latent_dim = 4
hidden_gen = 6
hidden_disc = 8
l2_rate = 1e-3

[training]
epochs = 2
batch_size = 30
lr_gen = 1e-3
lr_disc = 1e-3
seed = 5

[evaluation]
metrics = all
n_reference = 80
n_test = 80

[influence]
k_epochs = 1,2
n_targets = 10
n_permutations = 200

[cleansing]
n_harmful = 10,20
methods = influence,random
n_seeds = 2
"""


def test_config_roundtrip(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG_TEXT)
    config = load_config(path)
    assert config.dataset.n_train == 120
    assert config.architecture.data_dim == 2
    assert config.training.batch_size == 30
    assert config.k_epochs == (1, 2)
    assert config.n_harmful == (10, 20)
    assert config.methods == ("influence", "random")

    override = load_config(path, overrides={"training.seed": "9"})
    assert override.training.seed == 9


@pytest.mark.parametrize("name", ["a%b.idx", "%(seed)s.idx", "run-%(n_train)s.idx"],
                         ids=["percent", "missing_reference", "reference_to_n_train"])
def test_config_values_are_read_literally(tmp_path, name):
    # No interpolation: a `%` is part of the path, and `%(key)s` names no key.
    images = np.arange(4 * 36, dtype=np.uint8).reshape(4, 6, 6)
    write_idx(tmp_path / name, images)
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG_TEXT.replace("kind = normal2d\n",
                                        f"kind = idx\nside = 6\nimages = {tmp_path / name}\n"))
    config = load_config(path)
    assert config.dataset.images_path == str(tmp_path / name)
    data, _ = synthesize_dataset(config.dataset, 4, np.random.default_rng(0))
    assert np.array_equal(data, load_idx_images(tmp_path / name, side=6)[0])


@pytest.mark.parametrize("kind, extra, dim", [
    ("normal2d", "", 2),
    ("digits8", "n_classes = 4\n", 64),
    ("digits8", "n_classes = 4\nside = 4\n", 64),   # glyphs ignore the IDX side
], ids=["normal2d", "digits8", "digits8_with_side"])
def test_config_data_dim_must_match_the_dataset(tmp_path, kind, extra, dim):
    # No key sets it: the architecture takes the dataset's dimension.
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG_TEXT.replace("kind = normal2d\n", f"kind = {kind}\n{extra}"))
    assert load_config(path).architecture.data_dim == dim


def test_config_fingerprint_tracks_training_inputs(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG_TEXT)
    config = load_config(path)
    data, _ = synthesize_dataset(config.dataset, config.dataset.n_train,
                                 np.random.default_rng(0))
    base = trace_fingerprint(config, dataset_checksum(data))
    assert base == trace_fingerprint(config, dataset_checksum(data))
    other = load_config(path, overrides={"training.lr_gen": "2e-3"})
    assert trace_fingerprint(other, dataset_checksum(data)) != base
    # Evaluation-side settings do not change the trace identity.
    eval_changed = load_config(path, overrides={"evaluation.n_reference": "999"})
    assert trace_fingerprint(eval_changed, dataset_checksum(data)) == base


def test_config_defaults_live_on_the_settings_classes(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[dataset]\nkind = normal2d\n")
    config = load_config(path)
    assert config.architecture == GanArchitecture(data_dim=2)
    assert config.training == TrainingSettings()
    assert config.classifier == ClassifierSettings()
    assert config == ExperimentConfig(dataset=DatasetSpec(),
                                      architecture=GanArchitecture(data_dim=2),
                                      training=TrainingSettings())


@pytest.mark.parametrize("text, overrides, message", [
    (CONFIG_TEXT, {"trainng.seed": "3"}, "'seed' in section [trainng]"),
    (CONFIG_TEXT, {"training.sed": "3"}, "'sed' in section [training]"),
    (CONFIG_TEXT, {"DEFAULT.seed": "3"}, "'seed' in section [DEFAULT]"),
    ("[DEFAULT]\nseed = 3\n" + CONFIG_TEXT, {}, "'seed' in section [DEFAULT]"),
    (CONFIG_TEXT + "[trainng]\n", {}, "unknown config section [trainng]"),
    (CONFIG_TEXT.replace("latent_dim = 4", "latent_dim = 4\ndata_dim = 2"), {},
     "'data_dim' in section [architecture]"),
    (CONFIG_TEXT, {"architecture.data_dim": "2"}, "'data_dim' in section [architecture]"),
], ids=["override_section", "override_key", "override_default", "default_section",
        "empty_section", "data_dim_key", "data_dim_override"])
def test_config_refuses_names_the_key_table_lacks(tmp_path, text, overrides, message):
    path = tmp_path / "exp.ini"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(message)):
        load_config(path, overrides)


def test_readme_names_every_config_key():
    readme = (ROOT / "README.md").read_text()
    schema = readme.split("## Configuration schema\n")[1].split("\n## ")[0]
    bullets = dict(re.findall(r"^- `\[(\w+)\]` (.*?)(?=^- |^$)", schema, re.M | re.S))
    for dotted in _KEYS:
        section, key = dotted.split(".")
        assert f"`{key}`" in bullets.get(section, ""), f"README schema lacks {dotted}"


def test_missing_config_file_raises():
    with pytest.raises(FileNotFoundError):
        load_config("/nonexistent/config.ini")


def test_dataset_spec_validation():
    with pytest.raises(ValueError):
        DatasetSpec(kind="bogus")
    with pytest.raises(ValueError):
        DatasetSpec(n_train=0)


def test_resize_matches_scipy_zoom_with_edge_clamping():
    """The corner-aligned grid of ``ndimage.zoom(order=1)``; ``mode="nearest"``
    because the default zero fill blanks the last row and column wherever
    the coordinate rounds past the edge (21 of these (h, side) pairs)."""
    rng = np.random.default_rng(5)
    for size in range(2, 40):
        image = rng.standard_normal((size, size))
        for side in range(2, 40):
            weights = _resize_weights(size, side)
            expected = ndimage.zoom(image, side / size, order=1, mode="nearest")
            np.testing.assert_allclose(weights @ image @ weights.T, expected,
                                       rtol=0.0, atol=1e-12)


def test_idx_resize_keeps_the_last_row_and_column(tmp_path):
    write_idx(tmp_path / "imgs.idx", np.full((2, 28, 28), 255))
    data, _ = load_idx_images(tmp_path / "imgs.idx", side=14)
    assert np.all(data == 0.999)


def test_idx_resizes_both_axes_of_non_square_images(tmp_path):
    rng = np.random.default_rng(6)
    images = rng.integers(0, 256, size=(3, 12, 20))
    write_idx(tmp_path / "imgs.idx", images)
    data, _ = load_idx_images(tmp_path / "imgs.idx", side=8)
    assert data.shape == (3, 64)
    scaled = images / 255.0 * 1.998 - 0.999
    expected = np.stack([ndimage.zoom(image, (8 / 12, 8 / 20), order=1, mode="nearest")
                         for image in scaled])
    np.testing.assert_allclose(data, expected.reshape(3, 64), rtol=0.0, atol=1e-12)


def test_idx_images_at_the_requested_side_pass_through(tmp_path):
    images = np.random.default_rng(7).integers(0, 256, size=(4, 8, 8))
    write_idx(tmp_path / "imgs.idx", images)
    data, _ = load_idx_images(tmp_path / "imgs.idx", side=8)
    assert np.array_equal(data, (images / 255.0 * 1.998 - 0.999).reshape(4, 64))


def test_idx_evaluation_sets_take_their_own_row_count(tmp_path):
    images = np.random.default_rng(8).integers(0, 256, size=(220, 4, 4))
    write_idx(tmp_path / "imgs.idx", images)
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG_TEXT.replace(
        "kind = normal2d\nn_train = 120",
        f"kind = idx\nn_train = 50\nimages = {tmp_path / 'imgs.idx'}\nside = 4"))
    config = load_config(path)
    assert (config.dataset.n_train, config.n_reference, config.n_test) == (50, 80, 80)
    rows = (images / 255.0 * 1.998 - 0.999).reshape(220, 16)
    # The file's rows are dealt in order: training, reference, then test rows.
    data, _, _ = seed_dataset(config, 0)
    assert np.array_equal(data, rows[:50])
    latents, context = evaluation_context(config, 0)
    assert latents.shape == (80, 4)
    assert np.array_equal(context.real_data, rows[50:130])
    _, test_data, _ = evaluation_set(config, 0, "test", config.n_test)
    assert np.array_equal(test_data, rows[130:210])
    # A file with fewer rows than a set needs is refused by name.
    write_idx(tmp_path / "imgs.idx", images[:200])
    assert np.array_equal(evaluation_context(config, 0)[1].real_data, rows[50:130])
    with pytest.raises(ValueError, match=f"{tmp_path / 'imgs.idx'} holds 200 images, need 210"):
        evaluation_set(config, 0, "test", config.n_test)
    write_idx(tmp_path / "imgs.idx", images[:100])
    with pytest.raises(ValueError, match=f"{tmp_path / 'imgs.idx'} holds 100 images, need 130"):
        evaluation_context(config, 0)


@pytest.mark.parametrize("side", [1, 0])
def test_idx_side_below_two_is_refused(tmp_path, side):
    write_idx(tmp_path / "imgs.idx", np.zeros((1, 4, 4)))
    with pytest.raises(ValueError, match="side"):
        load_idx_images(tmp_path / "imgs.idx", side=side)


if __name__ == "__main__":
    for config_name in CONFIG_DIGESTS:
        print(f'    "{config_name}":\n        "{config_digest(ROOT / config_name)}",')
