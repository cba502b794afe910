from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from tmfusion.errors import InvalidArgumentError
from tmfusion.rnn.cells import CELL_KINDS, CellParams, block_shapes, param_size, sigmoid
from tmfusion.rnn.cells import backward as cell_backward
from tmfusion.rnn.cells import forward as cell_forward

from .conftest import cell_with_blocks
from .oracles import gru_oracle, indrnn_oracle, lstm_oracle


def random_cell(kind: str, rng, m=3, n=4) -> CellParams:
    blocks = {}
    for name, shape in block_shapes(kind, m, n).items():
        blocks[name] = rng.uniform(-0.8, 0.8, shape)
    return cell_with_blocks(kind, m, n, blocks)


def zero_cell(kind: str, m=3, n=4) -> CellParams:
    return CellParams(kind, m, n)


def run_one(p: CellParams, xs, h0=None, q0=None):
    """One (T, M) sequence through the batched forward, with (N,) initial
    states: the (T, N) hidden sequence and the (T, N) cell-state sequence
    (None but for the LSTM)."""
    states = {name: np.asarray(s)[None, :] for name, s in (("h0", h0), ("q0", q0))
              if s is not None}
    hs, cache = cell_forward(p, np.asarray(xs)[:, None, :], **states)
    qs = cache["qs"][:, :, 0] if "qs" in cache else None
    return hs[:, 0, :], qs


class TestIndrnnForward:
    def test_zero_params_give_half(self, rng):
        p = zero_cell("indrnn")
        xs = rng.normal(0, 1, size=(6, 3))
        hs, _ = run_one(p, xs)
        np.testing.assert_array_equal(hs, np.full((6, 4), 0.5))

    def test_zero_recurrence_is_feedforward(self, rng):
        p = random_cell("indrnn", rng)
        p.blocks["u"][:] = 0.0
        xs = rng.normal(0, 1, size=(5, 3))
        hs, _ = run_one(p, xs)
        # with no recurrence each step depends on its own input alone
        for t in range(5):
            alone, _ = run_one(p, xs[t : t + 1])
            np.testing.assert_allclose(hs[t], alone[0], atol=1e-15)

    def test_matches_scalar_oracle(self, rng):
        p = random_cell("indrnn", rng)
        xs = rng.normal(0, 1, size=(5, 3))
        h0 = rng.normal(0, 1, size=4)
        hs, _ = run_one(p, xs, h0=h0)
        oracle = indrnn_oracle(
            p.blocks["W"].tolist(), p.blocks["u"].tolist(), p.blocks["b"].tolist(),
            xs.tolist(), h0.tolist(),
        )
        np.testing.assert_allclose(hs, oracle, atol=1e-12)

    def test_independence_between_neurons(self, rng):
        for _ in range(20):
            p = random_cell("indrnn", rng, m=2, n=5)
            xs = rng.normal(0, 1, size=(7, 2))
            h0 = rng.normal(0, 1, size=5)
            base, _ = run_one(p, xs, h0=h0)
            j = int(rng.integers(0, 5))
            bumped = h0.copy()
            bumped[j] += 0.37
            out, _ = run_one(p, xs, h0=bumped)
            diff = out - base
            other = np.delete(diff, j, axis=1)
            assert np.all(other == 0.0)
            assert np.any(diff[:, j] != 0.0)

    def test_kind_checked(self):
        with pytest.raises(InvalidArgumentError):
            CellParams("indrnx", 3, 4)

    def test_shape_mismatch(self, rng):
        p = random_cell("indrnn", rng)
        with pytest.raises(InvalidArgumentError):
            run_one(p, np.zeros((4, 7)))


class TestLstmForward:
    def test_all_zero_stays_zero(self):
        p = zero_cell("lstm")
        hs, qs = run_one(p, np.zeros((5, 3)))
        np.testing.assert_array_equal(hs, np.zeros((5, 4)))
        np.testing.assert_array_equal(qs, np.zeros((5, 4)))

    def test_forced_carry_preserves_cell_state(self, rng):
        p = zero_cell("lstm")
        p.blocks["b_f"][:] = 1e3  # forget gate pinned to 1
        p.blocks["b_i"][:] = -1e3  # input gate pinned to 0
        q0 = rng.normal(0, 1, size=4)
        _, qs = run_one(p, rng.normal(0, 1, size=(6, 3)), q0=q0)
        for t in range(6):
            np.testing.assert_allclose(qs[t], q0, atol=1e-12)

    def test_matches_gate_by_gate_oracle(self, rng):
        p = random_cell("lstm", rng)
        xs = rng.normal(0, 1, size=(4, 3))
        h0 = rng.normal(0, 0.5, size=4)
        q0 = rng.normal(0, 0.5, size=4)
        hs, qs = run_one(p, xs, h0=h0, q0=q0)
        blocks = {k: v.tolist() for k, v in p.blocks.items()}
        ohs, oqs = lstm_oracle(blocks, xs.tolist(), h0.tolist(), q0.tolist())
        np.testing.assert_allclose(hs, ohs, atol=1e-12)
        np.testing.assert_allclose(qs, oqs, atol=1e-12)

    def test_hidden_bounded(self, rng):
        p = random_cell("lstm", rng)
        hs, _ = run_one(p, rng.normal(0, 3, size=(20, 3)))
        assert np.all(np.abs(hs) < 1.0)  # o in (0,1), tanh(q) in (-1,1)


class TestGruForward:
    def test_all_zero_stays_zero(self):
        p = zero_cell("gru")
        hs, _ = run_one(p, np.zeros((5, 3)))
        np.testing.assert_array_equal(hs, np.zeros((5, 4)))

    def test_update_gate_zero_is_pure_carry(self, rng):
        p = random_cell("gru", rng)
        p.blocks["b_z"][:] = -1e3  # update gate pinned to 0
        p.blocks["W_z"][:] = 0.0
        p.blocks["U_z"][:] = 0.0
        h0 = rng.normal(0, 1, size=4)
        hs, _ = run_one(p, rng.normal(0, 1, size=(6, 3)), h0=h0)
        for t in range(6):
            np.testing.assert_allclose(hs[t], h0, atol=1e-12)

    def test_matches_scalar_oracle(self, rng):
        p = random_cell("gru", rng)
        xs = rng.normal(0, 1, size=(5, 3))
        h0 = rng.normal(0, 0.5, size=4)
        hs, _ = run_one(p, xs, h0=h0)
        blocks = {k: v.tolist() for k, v in p.blocks.items()}
        np.testing.assert_allclose(
            hs, gru_oracle(blocks, xs.tolist(), h0.tolist()), atol=1e-12
        )


def cell_loss(p: CellParams, xs, coeffs, rec_mask=None, **states) -> float:
    """Scalar projection of the hidden sequence, for finite differencing."""
    hs, _ = cell_forward(p, xs, rec_mask=rec_mask, **states)
    return float(np.sum(hs * coeffs))


def assert_backward_matches_finite_differences(p: CellParams, xs, coeffs, rec_mask=None,
                                               **states):
    """Central differences on every entry of every block and of the inputs.

    ``states`` are the initial ``h0`` (and ``q0``) passed to every forward.
    """
    _, cache = cell_forward(p, xs, rec_mask=rec_mask, **states)
    d_xs = cell_backward(p, cache, coeffs)

    eps = 1e-6
    targets = [(name, arr, p.grads[name]) for name, arr in p.blocks.items()]
    targets.append(("d_xs", xs, d_xs))
    for name, arr, analytic_arr in targets:
        flat = arr.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = cell_loss(p, xs, coeffs, rec_mask=rec_mask, **states)
            flat[idx] = orig - eps
            down = cell_loss(p, xs, coeffs, rec_mask=rec_mask, **states)
            flat[idx] = orig
            numeric = (up - down) / (2 * eps)
            analytic = analytic_arr.reshape(-1)[idx]
            denom = max(abs(numeric), abs(analytic), 1e-8)
            label = f"{p.kind}.{name}[{idx}]"
            assert abs(numeric - analytic) / denom < 1e-4, label


@pytest.mark.parametrize("kind", CELL_KINDS)
def test_cell_backward_matches_finite_differences(rng, kind):
    p = random_cell(kind, rng, m=3, n=4)
    xs = rng.normal(0, 1, size=(5, 2, 3))  # T=5, B=2
    coeffs = rng.normal(0, 1, size=(5, 2, 4))
    assert_backward_matches_finite_differences(p, xs, coeffs)


@pytest.mark.parametrize("kind", CELL_KINDS)
def test_cell_backward_from_nonzero_initial_state(rng, kind):
    """The (B, N) initial states enter the feature-major kernels transposed;
    B != N makes a transposition mistake fail on shape or on value."""
    p = random_cell(kind, rng, m=3, n=4)
    xs = rng.normal(0, 1, size=(4, 3, 3))  # T=4, B=3
    coeffs = rng.normal(0, 1, size=(4, 3, 4))
    states = {"h0": rng.normal(0, 0.5, size=(3, 4))}
    if kind == "lstm":
        states["q0"] = rng.normal(0, 0.5, size=(3, 4))
    assert_backward_matches_finite_differences(p, xs, coeffs, **states)
    # each sequence of the batch runs from its own row of the initial states
    hs, _ = cell_forward(p, xs, **states)
    for j in range(3):
        alone, _ = cell_forward(p, xs[:, j : j + 1], **{k: v[j : j + 1] for k, v in states.items()})
        np.testing.assert_allclose(hs[:, j], alone[:, 0], rtol=0, atol=1e-12)


def test_cell_backward_with_recurrent_mask(rng):
    """Dropout on the hidden-to-hidden path must be differentiated through."""
    for kind in CELL_KINDS:
        p = random_cell(kind, rng, m=3, n=4)
        xs = rng.normal(0, 1, size=(4, 2, 3))
        coeffs = rng.normal(0, 1, size=(4, 2, 4))
        mask = (rng.random((2, 4)) < 0.5).astype(np.float64) / 0.5
        assert_backward_matches_finite_differences(p, xs, coeffs, rec_mask=mask)


@pytest.mark.parametrize("kind", CELL_KINDS)
def test_cell_backward_without_input_grad(rng, kind):
    """Skipping the input gradient leaves the weight gradient bit-identical
    and allocates no input-gradient buffer."""
    p = random_cell(kind, rng, m=3, n=4)
    xs = rng.normal(0, 1, size=(5, 2, 3))
    coeffs = rng.normal(0, 1, size=(5, 2, 4))
    mask = (rng.random((2, 4)) < 0.5).astype(np.float64) / 0.5
    _, cache = cell_forward(p, xs, rec_mask=mask)
    assert cell_backward(p, cache, coeffs) is not None
    full = p.grad.copy()
    p.grad.fill(0.0)  # backward adds to the gradient
    ws: dict = {}
    _, cache = cell_forward(p, xs, rec_mask=mask, ws=ws)
    assert cell_backward(p, cache, coeffs, ws=ws, input_grad=False) is None
    assert "d_xs" not in ws
    assert p.grad.tobytes() == full.tobytes()


@pytest.mark.parametrize("kind", CELL_KINDS)
def test_forward_without_gate_caches(rng, kind):
    """A forward that no backward follows gives the same hidden sequence,
    bit for bit, with one step of gate buffers instead of T."""
    p = random_cell(kind, rng, m=3, n=4)
    xs = rng.normal(0, 1, size=(6, 5, 3))
    mask = (rng.random((5, 4)) < 0.5).astype(np.float64) / 0.5
    full, _ = cell_forward(p, xs, rec_mask=mask)
    for ws in (None, {}):
        hs, _ = cell_forward(p, xs, rec_mask=mask, ws=ws, keep_gates=False)
        assert hs.tobytes() == full.tobytes()
    one_step = {"indrnn": {"hs": 6},
                "lstm": {"hs": 6, "acts": 4, "qs": 1, "tqs": 1, "rec": 4},
                "gru": {"hs": 6, "acts": 3, "rec": 2}}[kind]
    # buffer sizes in hidden-sequence steps of (N, B) = (4, 5)
    assert {name: buf.size / 20 for name, buf in ws.items()} == pytest.approx(one_step)


class TestSigmoid:
    def test_saturates_without_warning(self):
        x = np.linspace(-1e3, 1e3, 20001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = sigmoid(x)
        assert np.all(np.isfinite(s))
        assert np.all((s >= 0.0) & (s <= 1.0))

    def test_point_symmetry(self):
        x = np.linspace(-40.0, 40.0, 8001)
        np.testing.assert_allclose(sigmoid(-x), 1.0 - sigmoid(x), rtol=0, atol=1e-15)

    def test_float64_for_float32_and_int_input(self):
        for x in (np.linspace(-3.0, 3.0, 13, dtype=np.float32), np.arange(-3, 4)):
            s = sigmoid(x)
            assert s.dtype == np.float64
            np.testing.assert_array_equal(s, sigmoid(x.astype(np.float64)))

    def test_out_may_alias_input(self, rng):
        x = rng.normal(0, 5, size=(6, 4))
        expected = sigmoid(x)
        y = x.copy()
        assert sigmoid(y, out=y) is y
        np.testing.assert_array_equal(y, expected)
        # a strided column view, as the gated cells pass their gate slices
        y = x.copy()
        view = y[:, 1:3]
        sigmoid(view, out=view)
        np.testing.assert_array_equal(y[:, 1:3], expected[:, 1:3])
        np.testing.assert_array_equal(y[:, [0, 3]], x[:, [0, 3]])

    def test_matches_math_form(self):
        x = np.linspace(-40.0, 40.0, 8001)
        reference = np.array([1.0 / (1.0 + math.exp(-v)) for v in x])
        np.testing.assert_allclose(sigmoid(x), reference, rtol=0, atol=1e-15)


def test_hidden_states_bounded(rng):
    """Sigmoid/tanh cells cannot blow up regardless of input scale."""
    for kind in ("indrnn", "gru"):
        p = random_cell(kind, rng, m=3, n=4)
        hs, _ = run_one(p, rng.normal(0, 10, size=(30, 3)))
        if kind == "indrnn":
            assert np.all(hs > 0.0) and np.all(hs < 1.0)
        else:
            assert np.all(np.abs(hs) < 1.0)  # convex mix of h0=0 and tanh candidate


def test_init_shapes_and_ranges(rng):
    for kind in CELL_KINDS:
        p = CellParams(kind, 6, 14)
        p.initialize(rng)
        for name, shape in block_shapes(kind, 6, 14).items():
            assert p.blocks[name].shape == shape
        if kind == "indrnn":
            u = p.blocks["u"]
            assert np.all(u >= 0.0) and np.all(u <= 1.0)


def test_block_validation(rng):
    size = param_size("indrnn", 3, 4)
    assert size == sum(np.prod(s) for s in block_shapes("indrnn", 3, 4).values())
    with pytest.raises(InvalidArgumentError):
        CellParams("indrnn", 3, 4, theta=np.zeros(12))  # the W block alone
    with pytest.raises(InvalidArgumentError):
        CellParams("indrnn", 3, 4, grad=np.zeros(size + 3))
    with pytest.raises(InvalidArgumentError):
        CellParams("indrnn", 3, 4, theta=np.zeros(size, dtype=np.float32))
