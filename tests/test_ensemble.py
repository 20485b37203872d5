"""Baseline classifier, AUC-weighted averaging, and the metric report.

Gradient correctness is checked against central finite differences of an
independently written penalized cross-entropy, and the trained optimum
against scipy's L-BFGS-B on the same objective; AUC is checked against
explicit concordant/tied pair counting.
"""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import minimize

from spfp.ensemble import (
    MetricReport,
    _softmax,
    ensemble_predict,
    metrics,
    normalized_weights,
    predict_proba,
    train_builtin,
)
from spfp.errors import ConfigError, DataError


def separable_toy(n=60, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = (X[:, 0] + X[:, 1] > 0).astype(np.intp)
    X[y == 1] += 3.0  # push the classes far apart
    return X, y


def imported(proba):
    return np.asarray(proba, dtype=np.float64)


def penalized_nll(w_flat, xb, y, l2, n_cls):
    """Reference loss (natural log): mean cross-entropy + L2 on non-bias rows."""
    w = w_flat.reshape(xb.shape[1], n_cls)
    z = xb @ w
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    nll = -logp[np.arange(y.shape[0]), y].mean()
    return nll + 0.5 * l2 * float((w[1:] ** 2).sum())



def reference_softmax(z):
    """The textbook softmax, out of place."""
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def reference_train(X, y, *, l2=1e-4, max_iters=500, tol=1e-6, n_classes=None):
    """The out-of-place L-BFGS that train_builtin is a rewrite of: returns
    (weights, iterations, final_loss, evaluations, fallbacks)."""
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    n_cls = int(n_classes) if n_classes is not None else int(y.max()) + 1
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale[scale == 0.0] = 1.0
    xb = np.hstack([np.ones((n, 1)), (X - mean) / scale])

    lip = 0.5 * float(np.linalg.eigvalsh(xb.T @ xb)[-1]) / n + l2
    onehot = np.eye(n_cls)[y]
    penalty_mask = np.ones((d + 1, 1))
    penalty_mask[0, 0] = 0.0

    def loss_and_proba(w):
        z = xb @ w
        shifted = z - z.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        s = e.sum(axis=1)
        loss = float(np.mean(np.log(s) - shifted[np.arange(n), y]))
        return loss + 0.5 * l2 * float(np.vdot(w[1:], w[1:])), e / s[:, None]

    def grad(w, p):
        return xb.T @ (p - onehot) / n + l2 * (w * penalty_mask)

    w = np.zeros((d + 1, n_cls))
    f, p = loss_and_proba(w)
    g = grad(w, p)
    pairs = []  # (s, y, 1/s'y), oldest first
    evaluations, fallbacks, iterations = 1, 0, 0
    for _ in range(max_iters):
        if float(np.abs(g).max()) < tol:
            break
        # two-loop recursion
        q = g.copy()
        alphas = []
        for s, yk, rho in reversed(pairs):
            a = rho * float(np.vdot(s, q))
            q = q - a * yk
            alphas.append(a)
        gamma = 1.0 / lip
        if pairs:
            s, yk, _ = pairs[-1]
            gamma = float(np.vdot(s, yk)) / float(np.vdot(yk, yk))
        r = gamma * q
        for (s, yk, rho), a in zip(pairs, reversed(alphas)):
            r = r + (a - rho * float(np.vdot(yk, r))) * s
        direction = -r

        slope = float(np.vdot(g, direction))
        accepted = False
        step = 1.0
        halvings = 0
        while halvings <= 4:
            w_next = w + step * direction
            f_next, p = loss_and_proba(w_next)
            evaluations += 1
            if f_next <= f + 1e-4 * step * slope:
                accepted = True
                break
            step *= 0.5
            halvings += 1
        if not accepted:
            w_next = w - g / lip
            f_next, p = loss_and_proba(w_next)
            evaluations += 1
            fallbacks += 1
            pairs = []
        g_next = grad(w_next, p)
        s, yk = w_next - w, g_next - g
        sy = float(np.vdot(s, yk))
        if sy > 0.0:
            pairs = (pairs + [(s, yk, 1.0 / sy)])[-10:]
        w, f, g = w_next, f_next, g_next
        iterations += 1

    p = reference_softmax(xb @ w)
    p_true = np.clip(p[np.arange(n), y], 1e-15, 1.0 - 1e-15)
    return w, iterations, float(-np.log2(p_true).mean()), evaluations, fallbacks


@pytest.mark.parametrize("k", [2, 3, 7, 8, 9, 10, 16, 17, 20, 127, 128, 129, 300])
def test_softmax_equals_row_max_form(k):
    rng = np.random.default_rng(k)
    z = rng.normal(scale=3.0, size=(400, k))
    z[:50] = np.round(z[:50])  # ties, including several maxima per row
    z[50:60] = 7.25  # every logit tied
    z[60:100] *= 1e300  # large magnitude, mixed signs
    z[100:110] = -1e300
    z[110:120] = -1.0
    z[110:120, 0] = -0.0  # the row max is a zero of either sign
    z[110:120, -1] = 0.0
    reference = reference_softmax(z)  # before the call, which overwrites z
    out = _softmax(z)
    assert out is z
    assert np.array_equal(out, reference)


def oracle_data(n, d, k, seed, separation):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, k, n).astype(np.intp)
    X = rng.normal(size=(n, d))
    X[:, 0] += separation * y
    return X, y


class TestTrainMatchesReference:
    """train_builtin's in-place loop against the out-of-place one, with ==."""

    def assert_same(self, X, y, **kwargs):
        model = train_builtin(X, y, **kwargs)
        w, iterations, final_loss, evaluations, fallbacks = reference_train(X, y, **kwargs)
        assert np.array_equal(model.weights, w)
        assert model.iterations == iterations
        assert model.final_loss == final_loss
        assert model.evaluations == evaluations
        assert model.fallbacks == fallbacks
        xb = np.hstack([np.ones((X.shape[0], 1)), (X - model.mean) / model.scale])
        assert np.array_equal(predict_proba(model, X), reference_softmax(xb @ w))
        return model

    @pytest.mark.parametrize("k", [2, 3, 10])
    @pytest.mark.parametrize("d", [1, 15, 150])
    def test_classes_and_widths(self, k, d):
        self.assert_same(*oracle_data(300, d, k, seed=10 * k + d, separation=0.5), max_iters=60)

    @pytest.mark.parametrize("k", [3, 10])
    def test_column_selection_of_a_table(self, k):
        # the views' matrices: column-major, as a column selection is
        X, y = oracle_data(300, 40, k, seed=k, separation=0.5)
        view = X[:, [3, 1, 4, 15, 9, 26, 5, 35, 8, 37, 12, 30, 7, 29, 33]]
        assert np.isfortran(view)
        self.assert_same(view, y, max_iters=60)

    def test_constant_column(self):
        X, y = oracle_data(200, 6, 3, seed=1, separation=1.0)
        X[:, 2] = 4.0
        self.assert_same(X, y, max_iters=60)

    def test_more_classes_than_observed(self):
        X, y = oracle_data(200, 4, 3, seed=2, separation=1.0)
        model = self.assert_same(X, y, n_classes=5, max_iters=60)
        assert model.weights.shape == (5, 5)

    def test_converges_before_max_iters(self):
        X, y = oracle_data(120, 2, 2, seed=3, separation=0.3)
        model = self.assert_same(X, y, tol=1e-3, max_iters=2000)
        assert 0 < model.iterations < 2000

    def test_stops_at_max_iters(self):
        # with tol 0 the loss stalls at rounding level, where most line
        # searches fail and end in the gradient step
        X, y = oracle_data(200, 5, 3, seed=4, separation=4.0)
        model = self.assert_same(X, y, tol=0.0, max_iters=300)
        assert model.iterations == 300
        assert model.fallbacks > 0
        assert model.evaluations <= 3 * 300


def penalized_nll_grad(w_flat, xb, y, l2, n_cls):
    """Gradient of `penalized_nll`."""
    w = w_flat.reshape(xb.shape[1], n_cls)
    g = xb.T @ (reference_softmax(xb @ w) - np.eye(n_cls)[y]) / y.shape[0]
    g[1:] += l2 * w[1:]
    return g.ravel()


def latent_pairs_data(n, n_latent, seed):
    """Columns 2*L_a + L_b over every pair of binary latents, a noisy
    3-class target from three of them: strongly correlated columns."""
    rng = np.random.default_rng(seed)
    L = (rng.random((n, n_latent)) < np.linspace(0.3, 0.5, n_latent)).astype(np.int64)
    pairs = itertools.combinations(range(n_latent), 2)
    X = np.stack([2 * L[:, a] + L[:, b] for a, b in pairs], axis=1).astype(np.float64)
    y = (L[:, 0] + L[:, 1] + L[:, 2]) % 3
    noisy = rng.random(n) < 0.1
    y[noisy] = rng.integers(0, 3, int(noisy.sum()))
    return X, y.astype(np.intp)


def plain_descent_iterations(X, y, *, l2=1e-4, max_iters=500, tol=1e-6):
    """Updates fixed-step gradient descent from zero makes before its
    gradient max-norm drops below tol, or max_iters."""
    n, n_cls = X.shape[0], int(y.max()) + 1
    xb = np.hstack([np.ones((n, 1)), (X - X.mean(axis=0)) / X.std(axis=0)])
    lip = 0.5 * float(np.linalg.eigvalsh(xb.T @ xb)[-1]) / n + l2
    w = np.zeros(xb.shape[1] * n_cls)
    for k in range(max_iters):
        g = penalized_nll_grad(w, xb, y, l2, n_cls)
        if np.abs(g).max() < tol:
            return k
        w -= g / lip
    return max_iters


class TestTrainOptimum:
    """Where train_builtin ends, against an independent optimizer."""

    @pytest.mark.parametrize("data", [
        oracle_data(300, 1, 2, seed=0, separation=0.5),
        oracle_data(300, 15, 3, seed=1, separation=0.5),
        oracle_data(300, 40, 10, seed=2, separation=0.5),
        latent_pairs_data(1000, 12, seed=0),
    ])
    def test_objective_matches_lbfgs(self, data):
        X, y = data
        l2, k = 1e-4, int(y.max()) + 1
        model = train_builtin(X, y, l2=l2)
        assert model.iterations < 500  # converged
        xb = np.hstack([np.ones((X.shape[0], 1)), (X - model.mean) / model.scale])
        oracle = minimize(penalized_nll, np.zeros(xb.shape[1] * k), args=(xb, y, l2, k),
                          jac=penalized_nll_grad, method="L-BFGS-B",
                          options={"gtol": 1e-12, "ftol": 1e-15, "maxiter": 10_000})
        ours = penalized_nll(model.weights.ravel(), xb, y, l2, k)
        assert abs(ours - oracle.fun) < 1e-8  # nats

    def test_correlated_binary_columns_converge(self):
        # 66 columns over 12 latents, as in the benchmark's lowcard workload
        X, y = latent_pairs_data(1000, 12, seed=0)
        assert plain_descent_iterations(X, y) == 500
        model = train_builtin(X, y, max_iters=500)
        assert model.iterations < 500


class TestTrainBuiltin:
    def test_separable_training_accuracy(self):
        X, y = separable_toy()
        model = train_builtin(X, y)
        proba = predict_proba(model, X)
        assert (proba.argmax(axis=1) == y).mean() == 1.0

    def test_separable_backtracking_raises_no_warning(self):
        # unpenalized, so the weights grow while the loss falls towards 0
        X, y = oracle_data(100, 2, 2, seed=8, separation=5.0)
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            model = train_builtin(X, y, l2=0.0)
        assert (predict_proba(model, X).argmax(axis=1) == y).all()  # separable
        assert model.evaluations > model.iterations + 1  # a trial step was rejected
        assert model.iterations < 500

    def test_noise_labels_recover_priors(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(400, 3))
        y = np.zeros(400, dtype=np.intp)
        y[280:] = 1  # priors 0.7 / 0.3
        y = y[rng.permutation(400)]
        model = train_builtin(X, y)
        proba = predict_proba(model, X)
        assert abs(proba[:, 0].mean() - 0.7) < 0.05
        assert abs(proba[:, 1].mean() - 0.3) < 0.05

    def test_deterministic_weights(self):
        X, y = separable_toy(seed=2)
        a = train_builtin(X, y)
        b = train_builtin(X, y)
        assert np.array_equal(a.weights, b.weights)
        assert a.iterations == b.iterations
        assert a.final_loss == b.final_loss

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(25, 3))
        y = rng.integers(0, 3, size=25).astype(np.intp)
        l2 = 0.01
        # one update from zero initialization isolates the gradient at w=0
        model = train_builtin(X, y, l2=l2, max_iters=1, tol=0.0)
        xb = np.hstack([np.ones((25, 1)), (X - model.mean) / model.scale])
        lip = 0.5 * float(np.linalg.eigvalsh(xb.T @ xb)[-1]) / 25 + l2
        analytic = (-model.weights * lip).ravel()  # w1 = -grad/lip

        eps = 1e-6
        w0 = np.zeros(xb.shape[1] * 3)
        fd = np.empty_like(w0)
        for i in range(w0.shape[0]):
            up, dn = w0.copy(), w0.copy()
            up[i] += eps
            dn[i] -= eps
            fd[i] = (
                penalized_nll(up, xb, y, l2, 3) - penalized_nll(dn, xb, y, l2, 3)
            ) / (2 * eps)
        assert_allclose(analytic, fd, rtol=1e-5, atol=1e-8)

    def test_converged_point_is_stationary(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 2))
        y = (X[:, 0] > 0.3).astype(np.intp)
        l2 = 0.05
        model = train_builtin(X, y, l2=l2, max_iters=5000, tol=1e-10)
        xb = np.hstack([np.ones((40, 1)), (X - model.mean) / model.scale])
        w = model.weights.ravel()
        eps = 1e-6
        for i in range(w.shape[0]):
            up, dn = w.copy(), w.copy()
            up[i] += eps
            dn[i] -= eps
            fd = (
                penalized_nll(up, xb, y, l2, 2) - penalized_nll(dn, xb, y, l2, 2)
            ) / (2 * eps)
            assert abs(fd) < 1e-5

    def test_final_loss_in_bits(self):
        X, y = separable_toy(seed=5)
        model = train_builtin(X, y)
        proba = predict_proba(model, X)
        p_true = np.clip(proba[np.arange(60), y], 1e-15, 1 - 1e-15)
        assert_allclose(model.final_loss, float(-np.log2(p_true).mean()), atol=1e-12)

    def test_single_class_rejected(self):
        X = np.random.default_rng(6).normal(size=(10, 2))
        with pytest.raises(DataError, match="single class"):
            train_builtin(X, np.zeros(10, dtype=np.intp))

    @pytest.mark.parametrize("values", [(1e308, 1e308), (1e308, -1e308), (1e308, 5e307)])
    def test_overflowing_column_is_named(self, values):
        # (1e308, -1e308) overflows only the standard deviation, the others the mean
        X, y = separable_toy(seed=4)
        X = np.column_stack([X, np.resize(values, 60)])
        with pytest.raises(DataError, match="column 2 of X: its mean or standard deviation"):
            train_builtin(X, y)

    def test_misaligned_inputs(self):
        with pytest.raises(DataError):
            train_builtin(np.zeros((4, 2)), np.array([0, 1]))
        with pytest.raises(ConfigError):
            train_builtin(np.zeros((4, 2)), np.array([0, 1, 0, 1]), l2=-1.0)

    @pytest.mark.parametrize("code", [-1, 2])
    def test_class_code_outside_the_columns(self, code):
        X, y = separable_toy(seed=9)
        y[0] = code
        with pytest.raises(DataError, match="class codes outside"):
            train_builtin(X, y, n_classes=2)

    def test_iteration_cap(self):
        X, y = separable_toy(seed=7)
        model = train_builtin(X, y, max_iters=3)
        assert model.iterations <= 3

    def test_explicit_class_count(self):
        X, y = separable_toy(seed=8)
        model = train_builtin(X, y, n_classes=4)
        assert model.weights.shape == (3, 4)
        proba = predict_proba(model, X)
        assert proba.shape == (60, 4)
        assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)


class TestPredictProba:
    def test_rows_are_distributions(self):
        X, y = separable_toy(seed=9)
        proba = predict_proba(train_builtin(X, y), X)
        assert proba.min() >= 0.0 and proba.max() <= 1.0
        assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_width_mismatch_without_resolution(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(30, 4))
        y = (X[:, 0] > 0).astype(np.intp)
        model = train_builtin(X, y)
        with pytest.raises(DataError, match="feature columns"):
            predict_proba(model, X[:, :2])
        # a view model is not handed the full table
        view = train_builtin(X[:, [1, 3]], y)
        with pytest.raises(DataError, match="expected 2 feature columns, got 4"):
            predict_proba(view, X)


class TestNormalizedWeights:
    def test_proportional(self):
        kept, w = normalized_weights([0.8, 0.2])
        assert kept == [0, 1]
        assert_allclose(w, [0.8, 0.2])

    def test_equal_aucs_equal_weights(self):
        kept, w = normalized_weights([0.7, 0.7, 0.7])
        assert_allclose(w, [1 / 3] * 3)

    def test_zero_auc_member_dropped(self):
        with pytest.warns(UserWarning, match=r"zero-AUC.*\[1\]"):
            kept, w = normalized_weights([0.6, 0.0, 0.4])
        assert kept == [0, 2]
        assert_allclose(w, [0.6, 0.4])

    def test_degenerate_inputs(self):
        with pytest.raises(ConfigError):
            normalized_weights([])
        with pytest.raises(ConfigError):
            normalized_weights([-0.1, 0.5])
        with pytest.warns(UserWarning):
            with pytest.raises(ConfigError):
                normalized_weights([0.0, 0.0])


class TestEnsemblePredict:
    def test_equal_aucs_plain_average(self):
        a = imported([[1.0, 0.0], [0.5, 0.5]])
        b = imported([[0.0, 1.0], [0.7, 0.3]])
        out = ensemble_predict([a, b], [0.5, 0.5])
        assert_allclose(out, [[0.5, 0.5], [0.6, 0.4]], atol=1e-12)

    def test_single_member_identity(self):
        a = imported([[0.3, 0.7], [0.8, 0.2]])
        assert_allclose(ensemble_predict([a], [1.0]), a, atol=0)

    def test_hand_weighted_example(self):
        a = imported([[1.0, 0.0]])
        b = imported([[0.0, 1.0]])
        out = ensemble_predict([a, b], [0.8, 0.2])
        assert_allclose(out, [[0.8, 0.2]], atol=1e-12)

    def test_rows_still_distributions(self):
        rng = np.random.default_rng(13)
        members = [imported(rng.dirichlet(np.ones(3), size=20)) for _ in range(4)]
        _, w = normalized_weights([0.9, 0.6, 0.7, 0.5])
        out = ensemble_predict(members, w)
        assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
        assert out.min() >= 0.0

    def test_member_permutation_invariance(self):
        rng = np.random.default_rng(14)
        members = [imported(rng.dirichlet(np.ones(2), size=10)) for _ in range(3)]
        _, w = normalized_weights([0.9, 0.5, 0.7])
        base = ensemble_predict(members, w)
        perm = [2, 0, 1]
        out = ensemble_predict([members[i] for i in perm], [w[i] for i in perm])
        assert_allclose(out, base, atol=1e-12)

    def test_mismatches(self):
        a = imported([[1.0, 0.0]])
        c = imported([[0.2, 0.3, 0.5]])
        with pytest.raises(DataError, match=r"differ in shape: \[\(1, 2\), \(1, 3\)\]"):
            ensemble_predict([a, c], [0.5, 0.5])
        with pytest.raises(ConfigError):
            ensemble_predict([], [])
        with pytest.raises(ConfigError):
            ensemble_predict([a], [0.5, 0.5])

    def test_builtin_members_share_full_table(self):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(80, 5))
        y = (X[:, 0] - X[:, 3] > 0).astype(np.intp)
        probas = [predict_proba(train_builtin(X[:, ids], y), X[:, ids])
                  for ids in ([0, 1], [3, 4])]
        _, w = normalized_weights([0.8, 0.6])
        out = ensemble_predict(probas, w)
        assert out.shape == (80, 2)
        assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
        assert np.array_equal(out, w[0] * probas[0] + w[1] * probas[1])


def oracle_pair_auc(score, truth):
    pos = score[truth == 1]
    neg = score[truth == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (pos.shape[0] * neg.shape[0])


class TestMetrics:
    def test_perfect_predictor(self):
        proba = np.eye(3)[[0, 1, 2, 1]]
        truth = np.array([0, 1, 2, 1])
        rep = metrics(proba, truth)
        assert rep.f1_micro == 1.0
        assert rep.auc == 1.0
        assert rep.log_loss < 1e-9
        assert rep.mec == 0.0
        assert rep.mew is None

    def test_uniform_binary(self):
        proba = np.full((10, 2), 0.5)
        truth = np.array([0, 1] * 5)
        rep = metrics(proba, truth)
        assert rep.log_loss == 1.0
        assert rep.auc == 0.5
        assert rep.f1_micro == 0.5  # argmax ties resolve to class 0
        assert rep.mec == 1.0
        assert rep.mew == 1.0

    def test_three_row_hand_example(self):
        proba = np.array([[0.7, 0.3], [0.4, 0.6], [0.9, 0.1]])
        truth = np.array([0, 1, 1])
        rep = metrics(proba, truth)
        assert_allclose(rep.f1_micro, 2 / 3, atol=1e-12)
        assert_allclose(rep.mec, 0.9261, atol=1e-4)
        assert_allclose(rep.mew, 0.4690, atol=1e-4)
        h = lambda p: -(p * np.log2(p) + (1 - p) * np.log2(1 - p))
        assert_allclose(rep.mec, (h(0.7) + h(0.4)) / 2, atol=1e-12)
        assert_allclose(rep.mew, h(0.9), atol=1e-12)

    def test_auc_matches_pair_counting(self):
        rng = np.random.default_rng(16)
        for trial in range(60):
            n = int(rng.integers(4, 13))
            truth = rng.integers(0, 2, size=n)
            if truth.min() == truth.max():
                truth[0] = 1 - truth[0]
            p1 = np.round(rng.random(n), 1)  # coarse grid forces ties
            proba = np.column_stack([1 - p1, p1])
            rep = metrics(proba, truth.astype(np.intp))
            assert_allclose(
                rep.auc, oracle_pair_auc(p1, truth), rtol=0, atol=1e-12
            ), f"trial {trial}"

    def test_auc_skips_absent_classes(self):
        # class 2 never appears in truth: macro average covers classes 0,1
        proba = np.array(
            [[0.6, 0.3, 0.1], [0.2, 0.7, 0.1], [0.5, 0.4, 0.1], [0.1, 0.8, 0.1]]
        )
        truth = np.array([0, 1, 1, 1])
        rep = metrics(proba, truth)
        a0 = oracle_pair_auc(proba[:, 0], (truth == 0).astype(int))
        a1 = oracle_pair_auc(proba[:, 1], (truth == 1).astype(int))
        assert_allclose(rep.auc, (a0 + a1) / 2, atol=1e-12)

    def test_single_class_truth_rejected(self):
        proba = np.array([[0.6, 0.4], [0.3, 0.7]])
        with pytest.raises(DataError, match="AUC undefined"):
            metrics(proba, np.array([1, 1]))

    def test_entropy_decomposition(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(2, 30))
            c = int(rng.integers(2, 6))
            proba = rng.dirichlet(np.ones(c), size=n)
            truth = rng.integers(0, c, size=n)
            if np.unique(truth).shape[0] < 2:
                truth[0] = (truth[0] + 1) % c
            rep = metrics(proba, truth.astype(np.intp))
            n_correct = int(round(rep.f1_micro * n))
            n_wrong = n - n_correct
            total = (rep.mec or 0.0) * n_correct + (rep.mew or 0.0) * n_wrong
            with np.errstate(divide="ignore", invalid="ignore"):
                ent = -np.where(proba > 0, proba * np.log2(proba), 0.0).sum(axis=1)
            assert_allclose(total, ent.sum(), atol=1e-9)

    def test_validation_errors(self):
        good = np.array([[0.5, 0.5], [0.4, 0.6]])
        with pytest.raises(DataError):
            metrics(good, np.array([0]))
        with pytest.raises(DataError):
            metrics(good, np.array([0, 2]))
        with pytest.raises(DataError):
            metrics(np.array([[0.9, 0.3], [0.5, 0.5]]), np.array([0, 1]))
        with pytest.raises(DataError):
            metrics(good[0], np.array([0, 1]))
        with pytest.raises(DataError):
            metrics(np.empty((0, 2)), np.empty(0, dtype=int))

    def test_report_dict_and_elapsed(self):
        proba = np.array([[0.7, 0.3], [0.4, 0.6]])
        d = metrics(proba, np.array([0, 1])).to_dict()
        assert set(d) == {"f1_micro", "auc", "log_loss", "mec", "mew"}  # no wall clock
        assert d["mew"] is None
