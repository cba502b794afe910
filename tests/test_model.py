from __future__ import annotations

import datetime as dt
import hashlib
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmfusion.config import Hyperparams
from tmfusion.dataset import BuildConfig, Sample, Split, build_dataset
from tmfusion.errors import DivergedError, InvalidArgumentError, SchemaError, TmfusionError
from tmfusion.rnn import (
    backward_arrays,
    build_model,
    forward_arrays,
    load_checkpoint,
    predict,
    rng_streams,
    samples_to_arrays,
    save_checkpoint,
    train,
)
from tmfusion.rnn import model as model_module
from tmfusion.rnn import training
from tmfusion.rnn.cells import CELL_KINDS, sigmoid
from tmfusion.rnn.checkpoint import Checkpoint

from tmfusion.text import EmbeddingTable

from .conftest import linear_rule_samples, one_step_split, synthetic_tweets, weekday_bars
from .oracles import (
    gru_oracle,
    indrnn_oracle,
    loss_reference,
    lstm_oracle,
    whole_numeric_gather,
    whole_text_gather,
)

SMALL = Hyperparams(
    epochs=3, layers=2, hidden_units=4, learning_rate=0.01,
    recurrent_dropout=0.5, dropout=0.5, l2=0.0001, batch_size=4, seed=11,
)
NO_REG = Hyperparams(
    epochs=3, layers=2, hidden_units=4, learning_rate=0.01,
    recurrent_dropout=0.0, dropout=0.0, l2=0.0, batch_size=4, seed=11,
)


def make_sample(rng, numeric_dim=0, text_shape=None, label=1) -> Sample:
    return Sample(
        numeric=rng.normal(0.5, 0.2, size=numeric_dim),
        text=rng.normal(0, 0.05, size=text_shape) if text_shape else None,
        label=label,
        ticker="AAPL",
        day=dt.date(2021, 10, 1),
        author="trader",
    )


def prob_of(model, sample: Sample) -> float:
    """Probability of class 1 for one sample: a one-row batched forward."""
    text = None if sample.text is None else sample.text[None]
    split = one_step_split(sample.numeric[None], [sample.label], text)
    numeric, text, _ = samples_to_arrays(model, split)
    return float(forward_arrays(model, numeric, text)[0])


class TestForwardModel:
    def test_zero_head_gives_half(self, rng):
        model = build_model("numeric_only", "indrnn", SMALL, numeric_dim=6)
        model.head_w[:] = 0.0
        model.head_b[:] = 0.0
        sample = make_sample(rng, numeric_dim=6)
        assert prob_of(model, sample) == 0.5

    def test_zeroed_numeric_branch_gives_half(self, rng):
        model = build_model("numeric_only", "indrnn", SMALL, numeric_dim=6)
        for layer in model.numeric_layers:
            for arr in layer.blocks.values():
                arr[:] = 0.0
        model.head_w[:] = 0.0
        sample = make_sample(rng, numeric_dim=6)
        assert prob_of(model, sample) == 0.5

    @pytest.mark.parametrize("kind,oracle", [
        ("indrnn", indrnn_oracle), ("lstm", lstm_oracle), ("gru", gru_oracle),
    ])
    def test_fused_matches_chained_branch_oracles(self, rng, kind, oracle):
        model = build_model("fused", kind, NO_REG, numeric_dim=6, text_dim=3)
        sample = make_sample(rng, numeric_dim=6, text_shape=(5, 3))
        got = prob_of(model, sample)

        def run_branch(layers, xs):
            current = [list(row) for row in xs]
            for layer in layers:
                blocks = {k: v.tolist() for k, v in layer.blocks.items()}
                if kind == "indrnn":
                    hs = indrnn_oracle(blocks["W"], blocks["u"], blocks["b"], current)
                elif kind == "lstm":
                    hs, _ = lstm_oracle(blocks, current)
                else:
                    hs = gru_oracle(blocks, current)
                current = hs
            return np.array(current[-1])

        e_text = run_branch(model.text_layers, sample.text.tolist())
        e_num = run_branch(model.numeric_layers, [sample.numeric.tolist()])
        logit = np.concatenate([e_text, e_num]) @ model.head_w + model.head_b[0]
        expected = float(sigmoid(np.array([logit]))[0])
        assert got == pytest.approx(expected, abs=1e-12)

    def test_architecture_mismatch_rejected(self, rng):
        model = build_model("numeric_only", "gru", SMALL, numeric_dim=6)
        bad = make_sample(rng, numeric_dim=9)
        with pytest.raises(InvalidArgumentError):
            prob_of(model, bad)


class TestParameterStore:
    @pytest.mark.parametrize("kind", CELL_KINDS)
    def test_blocks_are_views_of_one_vector_each(self, rng, kind):
        model = build_model("fused", kind, SMALL, numeric_dim=5, text_dim=3)
        params, grads = list(model.params()), list(model.grads())
        assert [path for path, _ in params] == [path for path, _ in grads]
        for (path, arr), (_, g) in zip(params, grads):
            assert np.shares_memory(arr, model.theta), path
            assert np.shares_memory(g, model.grad), path
        # the named blocks tile each vector in order, with nothing left over
        np.testing.assert_array_equal(
            np.concatenate([arr.ravel() for _, arr in params]), model.theta
        )
        backward_arrays(model, rng.normal(0.5, 0.3, size=(3, 5)),
                        rng.normal(0, 0.3, size=(3, 4, 3)), np.array([1.0, 0.0, 1.0]))
        np.testing.assert_array_equal(
            np.concatenate([g.ravel() for _, g in model.grads()]), model.grad
        )
        # the stacked blocks the kernels use are the per-gate blocks, in gate order
        n = SMALL.hidden_units
        for _, layers in model.branches():
            for layer in layers:
                gate_w = [arr for name, arr in layer.blocks.items() if name[0] == "W"]
                for k, arr in enumerate(gate_w):
                    assert np.shares_memory(arr, layer.W[k * n : (k + 1) * n])
                assert np.shares_memory(layer.dW, model.grad)


    def test_initial_draws_follow_the_block_order(self):
        """Every block is drawn from the init stream in layout order, per gate,
        so initial weights do not depend on how the blocks are stored."""
        for kind in CELL_KINDS:
            model = build_model("fused", kind, SMALL, numeric_dim=5, text_dim=3)
            init_rng, _ = rng_streams(SMALL.seed)
            for path, arr in model.params():
                name = path.rsplit(".", 1)[-1]
                if name == "u":
                    expected = init_rng.uniform(0.0, 1.0, arr.shape)
                elif arr.ndim == 1 and path != "head.w":
                    expected = np.zeros(arr.shape)
                else:
                    s = math.sqrt(6.0 / (sum(arr.shape) if arr.ndim == 2 else arr.size + 1))
                    expected = init_rng.uniform(-s, s, arr.shape)
                np.testing.assert_array_equal(arr, expected, err_msg=f"{kind} {path}")


def finite_difference_check(model, numeric, text, labels, eps=1e-5, tol=1e-4, backward=None):
    """Central differences of ``loss_reference`` on every parameter against ``model.grad``.

    ``backward()`` computes the loss and fills ``model.grad``; by default it
    is ``backward_arrays`` over the same arrays.
    """
    if backward is None:
        loss, _ = backward_arrays(model, numeric, text, labels)
    else:
        loss, _ = backward()
    assert loss == pytest.approx(loss_reference(model, numeric, text, labels), rel=1e-12)
    grads = dict(model.grads())
    worst = 0.0
    for path, arr in model.params():
        flat = arr.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = loss_reference(model, numeric, text, labels)
            flat[idx] = orig - eps
            down = loss_reference(model, numeric, text, labels)
            flat[idx] = orig
            numeric_grad = (up - down) / (2 * eps)
            analytic = grads[path].reshape(-1)[idx]
            denom = max(abs(numeric_grad), abs(analytic), 1e-8)
            rel = abs(numeric_grad - analytic) / denom
            worst = max(worst, rel)
            assert rel < tol, f"{path}[{idx}] rel={rel}"
    return worst


class TestBackward:
    @pytest.mark.parametrize("kind", CELL_KINDS)
    def test_gradients_numeric_only(self, rng, kind):
        model = build_model("numeric_only", kind, SMALL, numeric_dim=5)
        numeric = rng.normal(0.5, 0.3, size=(3, 5))
        labels = np.array([1.0, 0.0, 1.0])
        finite_difference_check(model, numeric, None, labels)

    @pytest.mark.parametrize("kind", ["indrnn", "lstm", "gru"])
    def test_gradients_fused(self, rng, kind):
        model = build_model("fused", kind, SMALL, numeric_dim=4, text_dim=3)
        numeric = rng.normal(0.5, 0.3, size=(3, 4))
        text = rng.normal(0, 0.3, size=(3, 5, 3))
        labels = np.array([0.0, 1.0, 0.0])
        finite_difference_check(model, numeric, text, labels)

    def test_gradients_text_only(self, rng):
        model = build_model("text_only", "indrnn", SMALL, text_dim=3)
        text = rng.normal(0, 0.3, size=(3, 5, 3))
        labels = np.array([1.0, 1.0, 0.0])
        finite_difference_check(model, None, text, labels)

    def test_head_bias_gradient_zero_at_stationary_point(self, rng):
        hyper = Hyperparams(
            epochs=1, layers=2, hidden_units=4, l2=0.0, batch_size=4, seed=3,
        )
        model = build_model("numeric_only", "indrnn", hyper, numeric_dim=5)
        model.head_w[:] = 0.0
        model.head_b[:] = 0.0
        numeric = rng.normal(0.5, 0.3, size=(4, 5))
        labels = np.array([1.0, 0.0, 1.0, 0.0])  # balanced
        _, probs = backward_arrays(model, numeric, None, labels)
        np.testing.assert_array_equal(probs, 0.5)
        assert dict(model.grads())["head.b"][0] == 0.0

    def test_l2_adds_exactly_lambda_w_per_block(self, rng):
        base = Hyperparams(epochs=1, layers=2, hidden_units=4, l2=0.0, batch_size=4, seed=5)
        reg = Hyperparams(epochs=1, layers=2, hidden_units=4, l2=0.01, batch_size=4, seed=5)
        m0 = build_model("numeric_only", "gru", base, numeric_dim=5)
        m1 = build_model("numeric_only", "gru", reg, numeric_dim=5)
        numeric = rng.normal(0.5, 0.3, size=(3, 5))
        labels = np.array([1.0, 0.0, 1.0])
        backward_arrays(m0, numeric, None, labels)
        backward_arrays(m1, numeric, None, labels)
        g0, g1 = dict(m0.grads()), dict(m1.grads())
        params = dict(m0.params())
        for path in g0:
            np.testing.assert_allclose(g1[path] - g0[path], 0.01 * params[path], atol=1e-12)

    def test_gradients_with_numeric_step_sequence(self, rng):
        """A lookback build feeds the numeric branch several timesteps."""
        model = build_model("numeric_only", "gru", SMALL, numeric_dim=5)
        numeric = rng.normal(0.5, 0.2, size=(3, 4, 5))  # 4 lookback steps
        labels = np.array([1.0, 0.0, 1.0])
        finite_difference_check(model, numeric, None, labels)

    @pytest.mark.parametrize("kind", CELL_KINDS)
    def test_workspace_matches_fresh_arrays(self, rng, kind):
        """Reused buffers, poisoned with NaN, give the bits of fresh arrays:
        a full batch, then a smaller one served by prefix views."""
        hyper = Hyperparams(epochs=1, layers=2, hidden_units=4, batch_size=6, seed=3)
        model = build_model("fused", kind, hyper, numeric_dim=5, text_dim=3)
        numeric = rng.normal(0.5, 0.2, size=(6, 3, 5))  # three lookback steps
        text = rng.normal(0, 0.5, size=(6, 4, 3))
        labels = rng.integers(0, 2, size=6).astype(np.float64)
        workspace: dict = {}
        backward_arrays(model, numeric, text, labels, rng=np.random.default_rng(0),
                        workspace=workspace)
        for rows in (slice(0, 6), slice(1, 5)):
            for buffers in workspace.values():
                for buf in buffers.values():
                    buf.fill(np.nan)
            batch = (model, numeric[rows], text[rows], labels[rows])
            loss, probs = backward_arrays(*batch, rng=np.random.default_rng(1))
            grads = {path: g.copy() for path, g in model.grads()}
            w_loss, w_probs = backward_arrays(
                *batch, rng=np.random.default_rng(1), workspace=workspace
            )
            w_grads = dict(model.grads())
            assert w_loss == loss
            np.testing.assert_array_equal(w_probs, probs)
            assert set(w_grads) == set(grads)
            for path, g in grads.items():
                np.testing.assert_array_equal(w_grads[path], g, err_msg=path)

    def test_dropout_draws_are_deterministic(self, rng):
        model = build_model("numeric_only", "indrnn", SMALL, numeric_dim=5)
        numeric = rng.normal(0.5, 0.3, size=(4, 5))
        labels = np.array([1.0, 0.0, 1.0, 0.0])
        r1 = np.random.default_rng(99)
        r2 = np.random.default_rng(99)
        l1, p1 = backward_arrays(model, numeric, None, labels, rng=r1)
        g1 = {path: g.copy() for path, g in model.grads()}
        l2, p2 = backward_arrays(model, numeric, None, labels, rng=r2)
        g2 = dict(model.grads())
        assert l1 == l2
        np.testing.assert_array_equal(p1, p2)
        for path in g1:
            np.testing.assert_array_equal(g1[path], g2[path])


def synthetic_linear_dataset(rng, n=600, width=6, noise=0.05, text_shape=None):
    """Labels are a noisy linear functional of features in [0, 1]; split 80/20.

    With ``text_shape``, each row also gets a random (max_len, k) text.
    """
    w = rng.normal(0, 1, size=width)
    rows = rng.uniform(0, 1, size=(n, width))
    margin = rows @ w - np.median(rows @ w)
    labels = (margin > 0).astype(int)
    flips = rng.random(n) < noise
    labels[flips] = 1 - labels[flips]
    text = None if text_shape is None else rng.normal(0, 0.1, size=(n, *text_shape))
    cut = int(n * 0.8)
    return tuple(
        one_step_split(rows[part], labels[part], None if text is None else text[part])
        for part in (slice(0, cut), slice(cut, n))
    )


class TestTrain:
    def test_zero_learning_rate_freezes_weights(self, rng):
        hyper = Hyperparams(
            epochs=2, layers=2, hidden_units=4, learning_rate=0.0, batch_size=8, seed=7,
        )
        model = build_model("numeric_only", "indrnn", hyper, numeric_dim=6)
        before = {path: arr.copy() for path, arr in model.params()}
        tr, te = synthetic_linear_dataset(rng, n=40, width=6)
        train(model, tr, te)
        for path, arr in model.params():
            np.testing.assert_array_equal(arr, before[path])

    def test_same_seed_identical_checkpoints(self, rng, tmp_path):
        tr, te = synthetic_linear_dataset(rng, n=60, width=6)
        hashes = []
        for run in range(2):
            hyper = Hyperparams(epochs=3, layers=2, hidden_units=4, batch_size=16, seed=42)
            model = build_model("numeric_only", "gru", hyper, numeric_dim=6)
            ckpt = train(model, tr, te)
            path = tmp_path / f"run{run}.json"
            save_checkpoint(ckpt, path)
            hashes.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert hashes[0] == hashes[1]

    def test_different_seed_differs(self, rng, tmp_path):
        tr, te = synthetic_linear_dataset(rng, n=60, width=6)
        digests = []
        for seed in (1, 2):
            hyper = Hyperparams(epochs=2, layers=2, hidden_units=4, batch_size=16, seed=seed)
            model = build_model("numeric_only", "gru", hyper, numeric_dim=6)
            ckpt = train(model, tr, te)
            path = tmp_path / f"seed{seed}.json"
            save_checkpoint(ckpt, path)
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests[0] != digests[1]

    def test_log_has_one_entry_per_epoch(self, rng):
        tr, te = synthetic_linear_dataset(rng, n=40, width=6)
        hyper = Hyperparams(epochs=5, layers=1, hidden_units=3, batch_size=16, seed=1)
        model = build_model("numeric_only", "indrnn", hyper, numeric_dim=6)
        ckpt = train(model, tr, te)
        assert [e["epoch"] for e in ckpt.training_log] == [1, 2, 3, 4, 5]
        for entry in ckpt.training_log:
            assert set(entry) == {"epoch", "loss", "accuracy", "valid_accuracy"}

    def test_chunked_validation_matches_one_forward(self, rng):
        # 12 validation rows in chunks of at most 5: two full chunks, one partial
        tr, te = synthetic_linear_dataset(rng, n=60, width=6)
        hyper = Hyperparams(epochs=2, layers=2, hidden_units=4, batch_size=5, seed=4)
        model = build_model("numeric_only", "gru", hyper, numeric_dim=6)
        ckpt = train(model, tr, te)
        numeric, _, labels = samples_to_arrays(model, te)
        probs = forward_arrays(model, numeric, None)
        correct = int(np.sum((probs >= 0.5).astype(np.float64) == labels))
        assert ckpt.training_log[-1]["valid_accuracy"] == correct / len(te)

    def test_learns_separable_data(self, rng):
        tr, te = linear_rule_samples(rng, n=600, width=6)
        hyper = Hyperparams(epochs=40, layers=2, hidden_units=14, batch_size=32, seed=9)
        model = build_model("numeric_only", "indrnn", hyper, numeric_dim=6)
        ckpt = train(model, tr, te)
        assert ckpt.training_log[-1]["valid_accuracy"] >= 0.9

    def test_divergence_aborts_with_epoch(self, rng):
        tr, te = synthetic_linear_dataset(rng, n=40, width=6)
        hyper = Hyperparams(
            epochs=5, layers=1, hidden_units=3, learning_rate=1e150, batch_size=16, seed=1,
        )
        model = build_model("numeric_only", "indrnn", hyper, numeric_dim=6)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergedError) as excinfo:
                train(model, tr, te)
        assert excinfo.value.epoch >= 1
        assert "epoch" in str(excinfo.value)

    @pytest.mark.parametrize("name", ["learning_rate", "l2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_rates_must_be_finite_and_non_negative(self, name, value):
        with pytest.raises(InvalidArgumentError, match=name):
            Hyperparams(**{name: value})


def lookback_split(rng, n, steps=3, own_width=4, text_len=0, text_dim=3) -> Split:
    """A synthetic split of ``n`` rows of ``steps`` numeric steps (5 market
    columns and ``own_width`` own ones) and, when ``text_len``, text rows
    into a table of fewer texts, whose token ids index a random word table."""
    days = n + steps
    text_rows = tokens = table = None
    if text_len:
        table = np.vstack([np.zeros((1, text_dim)), rng.normal(0, 0.5, size=(6, text_dim))])
        texts = max(1, n // 2)
        tokens = rng.integers(0, table.shape[0], size=(texts, text_len)).astype(np.int32)
        text_rows = rng.integers(0, texts, size=n).astype(np.int32)
    return Split(
        ticker="AAPL",
        own=rng.normal(0.5, 0.2, size=(n, own_width)),
        day_rows=rng.integers(steps - 1, days, size=n).astype(np.int32),
        day_ordinals=np.arange(1, days + 1, dtype=np.int32),
        day_labels=rng.integers(0, 2, size=days).astype(np.uint8),
        authors=["trader"],
        author_ids=np.zeros(n, dtype=np.int32),
        layout=(("market", 5), ("own", own_width)),
        market=rng.normal(0.5, 0.2, size=(days, 5)),
        text_rows=text_rows,
        tokens=tokens,
        steps=steps,
        table=table,
    )


def step_model(architecture: str, kind: str, hyper: Hyperparams):
    return build_model(
        architecture, kind, hyper,
        numeric_dim=0 if architecture == "text_only" else 9,
        text_dim=0 if architecture == "numeric_only" else 3,
    )


class TestChunkedStep:
    """A training step runs its batch in chunks of at most CHUNK_ROWS rows."""

    @pytest.mark.parametrize("architecture", ["numeric_only", "text_only", "fused"])
    @pytest.mark.parametrize("kind", CELL_KINDS)
    def test_step_does_not_depend_on_the_chunk_size(self, rng, monkeypatch, kind, architecture):
        # 10 rows in chunks of 3 (3+3+3+1) and in one chunk, dropout on
        split = lookback_split(rng, 10, text_len=4)
        idx = rng.permutation(10)
        labels = split.labels[idx].astype(np.float64)
        runs = []
        for chunk_rows in (3, 64):
            monkeypatch.setattr(training, "CHUNK_ROWS", chunk_rows)
            model = step_model(architecture, kind, SMALL)
            step_rng = np.random.default_rng(7)
            loss, probs = training.train_step(model, split, idx, labels, step_rng, {})
            runs.append((loss, probs, model.grad.copy(), step_rng.bit_generator.state))
        (loss3, probs3, grad3, state3), (loss64, probs64, grad64, state64) = runs
        # a BLAS product's column can round differently with the product's
        # width, so a row's probability may move in its last bits, never more
        np.testing.assert_allclose(probs3, probs64, rtol=1e-14, atol=0)
        assert state3 == state64
        assert loss3 == pytest.approx(loss64, rel=1e-12, abs=0)
        # relative to the largest entry: the chunks sum each entry in another
        # order, and an entry that nearly cancels keeps only the absolute error
        assert np.max(np.abs(grad3 - grad64)) <= 1e-12 * np.max(np.abs(grad64))

    @pytest.mark.parametrize("kind", CELL_KINDS)
    def test_one_chunk_is_backward_arrays_bit_for_bit(self, rng, kind):
        """A batch of at most CHUNK_ROWS rows takes the one-chunk path, the
        same arithmetic as ``backward_arrays`` on the gathered arrays."""
        split = lookback_split(rng, 12, text_len=4)
        idx = rng.permutation(12)
        labels = split.labels[idx].astype(np.float64)
        model = step_model("fused", kind, SMALL)
        loss, probs = training.train_step(
            model, split, idx, labels, np.random.default_rng(3), {}
        )
        grad = model.grad.copy()
        numeric, text, _ = samples_to_arrays(model, split)
        ref_loss, ref_probs = backward_arrays(
            model, numeric[idx], text[idx], labels, rng=np.random.default_rng(3)
        )
        assert loss == ref_loss
        assert probs.tobytes() == ref_probs.tobytes()
        assert grad.tobytes() == model.grad.tobytes()

    @pytest.mark.parametrize("kind", CELL_KINDS)
    def test_gradients_over_several_chunks(self, rng, monkeypatch, kind):
        """Finite differences of the batch loss against the gradient that 10
        rows accumulate over chunks of 4, 4 and 2, with the L2 term added once."""
        monkeypatch.setattr(training, "CHUNK_ROWS", 4)
        hyper = Hyperparams(
            epochs=1, layers=2, hidden_units=3, recurrent_dropout=0.0, dropout=0.0,
            l2=0.01, batch_size=10, seed=11,
        )
        split = lookback_split(rng, 10, text_len=3)
        idx = rng.permutation(10)
        labels = split.labels[idx].astype(np.float64)
        model = step_model("fused", kind, hyper)
        numeric, text, _ = samples_to_arrays(model, split)
        finite_difference_check(
            model, numeric[idx], text[idx], labels,
            backward=lambda: training.train_step(
                model, split, idx, labels, np.random.default_rng(0), {}
            ),
        )

    def test_training_memory_does_not_grow_with_the_batch(self):
        """One epoch at batch 4096 peaks at most 1.25 times one at batch
        CHUNK_ROWS: the caches and gathers are the chunk's, not the batch's."""
        rng = np.random.default_rng(0)
        tr = lookback_split(rng, 4096, steps=11, own_width=9)
        va = lookback_split(rng, 600, steps=11, own_width=9)
        peaks = []
        for batch_size in (training.CHUNK_ROWS, 4096):
            hyper = Hyperparams(epochs=1, batch_size=batch_size, seed=1)
            model = build_model("numeric_only", "gru", hyper, numeric_dim=14)
            tracemalloc.start()
            try:
                train(model, tr, va)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks


def gathered_inputs(model, split, rows, n, ws):
    """``training._inputs`` as whole (T, n, M) arrays: every step of a chunk gathered at once."""
    inputs = {}
    if model.text_layers:
        inputs["text"] = whole_text_gather(split, rows).transpose(1, 0, 2)
    if model.numeric_layers:
        inputs["numeric"] = whole_numeric_gather(split, rows).transpose(1, 0, 2)
    return inputs


class TestStepSources:
    """The first layers read their input one step at a time from the split's tables."""

    @pytest.mark.parametrize("architecture", ["fused", "numeric_only"])
    @pytest.mark.parametrize("kind", CELL_KINDS)
    def test_training_equals_the_gathered_arrays_bit_for_bit(
        self, rng, monkeypatch, kind, architecture
    ):
        """``train`` and ``forward_split`` through step sources give the weights,
        the log and the probabilities that whole gathered arrays give: over a
        3-step lookback, text, dropout and batches of 10 rows in chunks of 4."""
        monkeypatch.setattr(training, "CHUNK_ROWS", 4)
        tr = lookback_split(rng, 30, text_len=4)
        va = lookback_split(rng, 9, text_len=4)
        hyper = Hyperparams(
            epochs=2, layers=2, hidden_units=4, learning_rate=0.05, recurrent_dropout=0.3,
            dropout=0.3, l2=0.001, batch_size=10, seed=5,
        )
        runs = []
        for inputs in (training._inputs, gathered_inputs):
            monkeypatch.setattr(training, "_inputs", inputs)
            model = step_model(architecture, kind, hyper)
            ckpt = train(model, tr, va)
            probs = training.forward_split(model, va, batch_size=4)
            runs.append((model.theta.tobytes(), ckpt.training_log, probs.tobytes()))
        assert runs[0] == runs[1]

    def test_a_step_peak_does_not_hold_a_gather(self):
        """One training step's traced peak grows with max_len by the caches'
        steps only: doubling max_len from 8 to 16 adds less than half of the
        (rows, 8, k) gather that the chunk's text would take as one array."""
        rows, k = 256, 200
        hyper = Hyperparams(layers=1, hidden_units=4, batch_size=rows, seed=1)
        peaks = []
        for max_len in (8, 16):
            split = lookback_split(
                np.random.default_rng(0), rows, steps=1, text_len=max_len, text_dim=k
            )
            model = build_model("text_only", "lstm", hyper, text_dim=k)
            idx = np.arange(rows)
            labels = split.labels.astype(np.float64)
            tracemalloc.start()
            try:
                training.train_step(model, split, idx, labels, np.random.default_rng(1), {})
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        gather = rows * 8 * k * 8
        assert peaks[1] - peaks[0] < 0.5 * gather, (peaks, gather)


class TestInference:
    """Inference keeps no gate caches: no backward reads them."""

    @pytest.mark.parametrize("kind", CELL_KINDS)
    def test_probabilities_equal_the_forward_with_caches(self, rng, kind):
        split = lookback_split(rng, 40, text_len=5)
        model = step_model("fused", kind, SMALL)
        numeric, text, _ = samples_to_arrays(model, split)
        cached, _ = model_module._forward_steps(
            model, model_module._time_major(model, numeric, text), None
        )
        probs = training.forward_split(model, split, batch_size=16)
        assert probs.tobytes() == cached.tobytes()

    def test_inference_memory_is_a_step_of_gates(self):
        """``forward_split`` over a GRU at T = 11 holds about a tenth of the
        gate buffers that the forward with caches holds."""
        rng = np.random.default_rng(0)
        split = lookback_split(rng, 512, steps=11, own_width=9)
        model = build_model("numeric_only", "gru", Hyperparams(hidden_units=32), numeric_dim=14)
        numeric, _, _ = samples_to_arrays(model, split)
        peaks = []
        for forward in (
            lambda: model_module._forward_steps(
                model, model_module._time_major(model, numeric, None), None, {}
            ),
            lambda: forward_arrays(model, numeric, None, workspace={}),
        ):
            tracemalloc.start()
            try:
                forward()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # with caches: per layer (11 + 3·11) steps of (32, 512); without: 11 + 3
        assert peaks[1] <= 0.5 * peaks[0], peaks


class TestCheckpoint:
    def roundtrip(self, ckpt, path):
        save_checkpoint(ckpt, path)
        return load_checkpoint(path)

    def test_save_load_save_byte_identical(self, rng, tmp_path):
        tr, te = synthetic_linear_dataset(rng, n=40, width=6, text_shape=(4, 3))
        hyper = Hyperparams(epochs=2, layers=2, hidden_units=4, batch_size=16, seed=2)
        model = build_model("fused", "lstm", hyper, numeric_dim=6, text_dim=3)
        ckpt = train(model, tr, te)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_checkpoint(ckpt, p1)
        loaded = load_checkpoint(p1)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_predict_stable_across_reload(self, rng, tmp_path):
        tr, te = synthetic_linear_dataset(rng, n=40, width=6)
        hyper = Hyperparams(epochs=2, layers=2, hidden_units=4, batch_size=16, seed=2)
        model = build_model("numeric_only", "gru", hyper, numeric_dim=6)
        ckpt = train(model, tr, te)
        loaded = self.roundtrip(ckpt, tmp_path / "ckpt.json")
        for i in range(5):
            assert predict(ckpt, te[i]) == predict(loaded, te[i])

    @pytest.mark.parametrize("kind", CELL_KINDS)
    @pytest.mark.parametrize("case", ["lookback", "fused_text"])
    def test_predict_is_a_one_row_forward_split(self, rng, kind, case):
        """``predict`` on the row view ``split[i]`` gives, bit for bit, the
        probability of a ``forward_split`` that runs row i alone: over a
        3-step lookback split and a built split with text."""
        hyper = Hyperparams(epochs=1, layers=2, hidden_units=4, batch_size=8, seed=3)
        if case == "lookback":
            split = lookback_split(rng, 12, steps=3)
            model = step_model("numeric_only", kind, hyper)
        else:
            bars = weekday_bars(rng, 20)
            cfg = BuildConfig(
                ticker="AAPL", feature_set=frozenset({"sentiment", "social", "text"}),
                embedding=EmbeddingTable.hashed(dim=3, seed=2),
            )
            split = build_dataset(synthetic_tweets(rng, [b.date for b in bars], 40), bars, cfg).test
            model = build_model("fused", kind, hyper, numeric_dim=9, text_dim=3)
        ckpt = Checkpoint(model=model)
        one_row = training.forward_split(model, split, batch_size=1)
        for i in range(len(split)):
            cls, prob = predict(ckpt, split[i])
            assert np.float64(prob).tobytes() == one_row[i].tobytes()
            assert cls == int(one_row[i] >= 0.5)

    def test_zero_head_predicts_one_at_half(self, rng, tmp_path):
        hyper = Hyperparams(epochs=1, layers=1, hidden_units=3, batch_size=4, seed=0)
        model = build_model("numeric_only", "indrnn", hyper, numeric_dim=4)
        model.head_w[:] = 0.0
        model.head_b[:] = 0.0
        ckpt = Checkpoint(model=model)
        sample = make_sample(rng, numeric_dim=4)
        cls, prob = predict(ckpt, sample)
        assert (cls, prob) == (1, 0.5)

    def test_predict_rejects_mismatched_sample(self, rng, tmp_path):
        hyper = Hyperparams(epochs=1, layers=1, hidden_units=3, batch_size=4, seed=0)
        model = build_model("numeric_only", "indrnn", hyper, numeric_dim=4)
        ckpt = Checkpoint(model=model)
        with pytest.raises(InvalidArgumentError):
            predict(ckpt, make_sample(rng, numeric_dim=7))

    def test_training_log_preserved(self, rng, tmp_path):
        tr, te = synthetic_linear_dataset(rng, n=40, width=6)
        hyper = Hyperparams(epochs=3, layers=1, hidden_units=3, batch_size=16, seed=2)
        model = build_model("numeric_only", "indrnn", hyper, numeric_dim=6)
        ckpt = train(model, tr, te, meta={"ticker": "SYN"})
        loaded = self.roundtrip(ckpt, tmp_path / "ckpt.json")
        assert loaded.training_log == ckpt.training_log
        assert loaded.meta == {"ticker": "SYN"}

    def test_unsupported_version_rejected(self, tmp_path):
        hyper = Hyperparams(epochs=1, layers=1, hidden_units=3, batch_size=4, seed=0)
        model = build_model("numeric_only", "indrnn", hyper, numeric_dim=4)
        path = tmp_path / "ckpt.json"
        save_checkpoint(Checkpoint(model=model), path)
        blob = json.loads(path.read_text())
        blob["schema_version"] = 99
        path.write_text(json.dumps(blob))
        with pytest.raises(SchemaError):
            load_checkpoint(path)

    def test_bad_fields_rejected_by_name(self, tmp_path):
        hyper = Hyperparams(epochs=1, layers=1, hidden_units=3, batch_size=4, seed=0)
        model = build_model("numeric_only", "gru", hyper, numeric_dim=4)
        path = tmp_path / "ckpt.json"
        save_checkpoint(Checkpoint(model=model), path)
        good = json.loads(path.read_text())

        def rejected(mutate, named):
            blob = json.loads(json.dumps(good))
            mutate(blob)
            path.write_text(json.dumps(blob))
            with pytest.raises(SchemaError, match=named):
                load_checkpoint(path)

        for key, value in good.items():
            if key != "schema_version":
                wrong = "x" if not isinstance(value, str) else 1
                rejected(lambda b, key=key, wrong=wrong: b.update({key: wrong}), key)
        rejected(lambda b: b.update(literal_forms=True), "literal_forms.*retrain")
        rejected(lambda b: b.update(cell_kind="simple"), r"ckpt\.json: cell_kind must be one of")
        rejected(lambda b: b.update(architecture="bogus"), r"ckpt\.json: architecture must be one of")
        rejected(lambda b: b["hyperparams"].update(dropuot=0.1), "dropuot")
        rejected(lambda b: b["hyperparams"].update(epochs="1"), "epochs")
        rejected(lambda b: b["dims"].pop("numeric_layers"), "numeric_layers")
        rejected(lambda b: b["weights"].pop("numeric.0.U_r"), "numeric.0.U_r")
        rejected(lambda b: b["weights"].update({"numeric.1.W_z": b["weights"]["head.b"]}),
                 "numeric.1.W_z")
        rejected(lambda b: b["weights"]["head.w"].update(data="not base64!"), "head.w")
        rejected(lambda b: b["weights"]["head.w"].update(shape=[2, 2]), "head.w")
        rejected(lambda b: b["weights"]["head.b"].update(data="AAAAAAAA+H8="), "head.b")  # NaN
        rejected(lambda b: b["dims"].update(numeric_layers=2), "numeric_layers")
        # sizes past what the file holds are refused before anything is allocated
        rejected(lambda b: b["hyperparams"].update(layers=10**9), "hyperparams")
        rejected(lambda b: b["dims"].update(numeric_dim=10**18), "numeric_dim")

    def test_corrupt_json_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            load_checkpoint(path)


@pytest.fixture(scope="module")
def small_checkpoint_bytes(tmp_path_factory) -> bytes:
    hyper = Hyperparams(epochs=1, layers=1, hidden_units=2, batch_size=4, seed=0)
    path = tmp_path_factory.mktemp("ckpt") / "checkpoint.json"
    save_checkpoint(Checkpoint(model=build_model("fused", "gru", hyper, numeric_dim=2, text_dim=2)),
                    path)
    return path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_any_checkpoint_bytes_load_or_raise_tmfusion_error(small_checkpoint_bytes, data):
    """Arbitrary bytes, and a saved checkpoint with bytes replaced, inserted
    or cut off, either load or raise a TmfusionError."""
    blob = small_checkpoint_bytes
    kind = data.draw(st.sampled_from(["bytes", "replace", "insert", "truncate"]), label="kind")
    if kind == "bytes":
        blob = data.draw(st.binary(max_size=200), label="blob")
    elif kind == "truncate":
        blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="size")]
    else:
        pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
        chunk = data.draw(st.binary(min_size=1, max_size=4), label="chunk")
        blob = blob[:pos] + chunk + blob[pos + (len(chunk) if kind == "replace" else 0):]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.json"
        path.write_bytes(blob)
        try:
            load_checkpoint(path)
        except TmfusionError:
            pass
