"""Independent reference implementations used only by tests.

These are deliberately written with different algorithms than the
package (graph search instead of dynamic programming, enumeration
instead of iterative optimization, finite differences instead of
backpropagation) so agreement is meaningful. Frozen: do not adapt these
to match the implementation; fix the implementation instead.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Callable, Sequence

import numpy as np


# ---------------------------------------------------------------- edit paths


def _edits(s: tuple, alphabet: Sequence[str], cap: int) -> list[tuple]:
    out = []
    n = len(s)
    for i in range(n):  # deletions
        out.append(s[:i] + s[i + 1 :])
    for i in range(n):  # substitutions
        for c in alphabet:
            if c != s[i]:
                out.append(s[:i] + (c,) + s[i + 1 :])
    if n < cap:  # insertions
        for i in range(n + 1):
            for c in alphabet:
                out.append(s[:i] + (c,) + s[i:])
    for i in range(n - 1):  # adjacent transpositions
        if s[i] != s[i + 1]:
            out.append(s[:i] + (s[i + 1], s[i]) + s[i + 2 :])
    return out


def all_strings(alphabet: Sequence[str], max_len: int) -> list[tuple]:
    out: list[tuple] = [()]
    level: list[tuple] = [()]
    for _ in range(max_len):
        level = [s + (c,) for s in level for c in alphabet]
        out.extend(level)
    return out


def bfs_edit_distances(
    alphabet: Sequence[str], operand_len: int, slack: int = 3
) -> dict[tuple[tuple, tuple], int]:
    """Distance between every pair of strings of length <= operand_len.

    Breadth-first search over the graph whose vertices are strings (with
    intermediate length capped at operand_len + slack; an optimal edit
    path never needs to grow beyond the longer operand, so the slack is
    pure safety margin) and whose edges are single edit operations:
    delete, substitute, insert, swap adjacent.
    """
    cap = operand_len + slack
    nodes = all_strings(alphabet, cap)
    index = {s: i for i, s in enumerate(nodes)}
    adj: list[list[int]] = [[] for _ in nodes]
    for s, i in index.items():
        adj[i] = [index[t] for t in _edits(s, alphabet, cap)]
    sources = [s for s in nodes if len(s) <= operand_len]
    table: dict[tuple[tuple, tuple], int] = {}
    for src in sources:
        start = index[src]
        dist = {start: 0}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        for tgt in sources:
            table[(src, tgt)] = dist[index[tgt]]
    return table


# ------------------------------------------------------- finite differences


def central_difference(
    f: Callable[[np.ndarray], float], theta: np.ndarray, h: float = 1e-5
) -> np.ndarray:
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        up[i] += h
        down = theta.copy()
        down[i] -= h
        grad[i] = (f(up) - f(down)) / (2.0 * h)
    return grad


def max_relative_error(
    analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-6
) -> float:
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    numeric = np.asarray(numeric, dtype=np.float64).ravel()
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


# ------------------------------------------------- per-subject training


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, z)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    from scipy.special import expit

    return expit(z)


def reference_autoencoder_fit(
    params: dict, X: np.ndarray, learning_rate: float, epochs: int
) -> dict:
    """Tied tanh autoencoder trained on one subject alone by plain
    full-batch gradient descent, one array at a time. Trains ``params``
    in place and returns it."""
    W, b, c = params["W"], params["b"], params["c"]
    K = len(W)
    for _ in range(epochs):
        A = [X]
        for k in range(K):
            A.append(np.tanh(A[k] @ W[k].T + b[k]))
        O = [None] * (K + 1)
        O[K] = A[K]
        for k in range(K - 1, -1, -1):
            O[k] = np.tanh(O[k + 1] @ W[k] + c[k])
        grad_W = [np.zeros_like(w) for w in W]
        grad_b, grad_c = [None] * K, [None] * K
        g = 2.0 * (O[0] - X)
        for k in range(K):
            gv = g * (1.0 - O[k] ** 2)
            grad_c[k] = gv.sum(axis=0)
            grad_W[k] += O[k + 1].T @ gv
            g = gv @ W[k].T
        for k in range(K - 1, -1, -1):
            gz = g * (1.0 - A[k + 1] ** 2)
            grad_b[k] = gz.sum(axis=0)
            grad_W[k] += gz.T @ A[k]
            g = gz @ W[k]
        for p, grad in zip(W + b + c, grad_W + grad_b + grad_c):
            p -= learning_rate * grad
    return params


def reference_vae_fit(
    params: dict,
    X: np.ndarray,
    rng: np.random.Generator,
    learning_rate: float,
    batch_size: int,
    epochs: int,
) -> dict:
    """VAE trained on one subject alone with per-array Adam, drawing a
    permutation per epoch and noise per batch from ``rng``. Trains
    ``params`` in place and returns it."""
    names = list(params)
    arrays = [a for k in names for a in (params[k] if isinstance(params[k], list) else [params[k]])]
    m1 = [np.zeros_like(a) for a in arrays]
    m2 = [np.zeros_like(a) for a in arrays]
    H = len(params["enc_W"])
    latent = params["b_mu"].size
    t = 0
    for _ in range(epochs):
        order = rng.permutation(X.shape[0])
        for start in range(0, X.shape[0], batch_size):
            x = X[order[start : start + batch_size]]
            eps = rng.standard_normal((x.shape[0], latent))
            enc_pre, enc_act = [], [x]
            for W, b in zip(params["enc_W"], params["enc_b"]):
                enc_pre.append(enc_act[-1] @ W.T + b)
                enc_act.append(_softplus(enc_pre[-1]))
            mu = enc_act[-1] @ params["W_mu"].T + params["b_mu"]
            lv = enc_act[-1] @ params["W_lv"].T + params["b_lv"]
            std = np.exp(0.5 * lv)
            dec_pre, dec_act = [], [mu + std * eps]
            for W, b in zip(params["dec_W"], params["dec_b"]):
                dec_pre.append(dec_act[-1] @ W.T + b)
                dec_act.append(_softplus(dec_pre[-1]))
            logits = dec_act[-1] @ params["W_out"].T + params["b_out"]
            g = _sigmoid(logits) - x
            g_out = (g.T @ dec_act[-1], g.sum(axis=0))
            g = g @ params["W_out"]
            g_dec = [None] * (2 * H)
            for k in range(H - 1, -1, -1):
                g = g * _sigmoid(dec_pre[k])
                g_dec[k], g_dec[H + k] = g.T @ dec_act[k], g.sum(axis=0)
                g = g @ params["dec_W"][k]
            g_mu = g + mu
            g_lv = g * eps * 0.5 * std + 0.5 * (np.exp(lv) - 1.0)
            g = g_mu @ params["W_mu"] + g_lv @ params["W_lv"]
            g_enc = [None] * (2 * H)
            for k in range(H - 1, -1, -1):
                g = g * _sigmoid(enc_pre[k])
                g_enc[k], g_enc[H + k] = g.T @ enc_act[k], g.sum(axis=0)
                g = g @ params["enc_W"][k]
            grads = [
                *g_enc,
                g_mu.T @ enc_act[-1], g_mu.sum(axis=0),
                g_lv.T @ enc_act[-1], g_lv.sum(axis=0),
                *g_dec,
                *g_out,
            ]
            t += 1
            for p, grad, m, v in zip(arrays, grads, m1, m2):
                m *= 0.9
                m += (1 - 0.9) * grad
                v *= 0.999
                v += (1 - 0.999) * grad * grad
                m_hat = m / (1 - 0.9**t)
                v_hat = v / (1 - 0.999**t)
                p -= learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
    return params


# ----------------------------------------------------- one-class SVM oracle


def ocsvm_dual_oracle(K: np.ndarray, nu: float) -> tuple[float, np.ndarray]:
    """Globally optimal dual objective by support-pattern enumeration.

    Every variable is assigned zero / at-cap / free; for each of the 3^n
    patterns the equality-constrained stationary point is solved exactly.
    Each candidate that lands inside the box is feasible, so the minimum
    objective over candidates is the global optimum (the true optimum's
    own pattern is always among them).
    """
    n = K.shape[0]
    cap = 1.0 / (nu * n)
    best_obj = np.inf
    best_alpha: np.ndarray | None = None
    for pattern in itertools.product((0, 1, 2), repeat=n):
        capped = [i for i, p in enumerate(pattern) if p == 1]
        free = [i for i, p in enumerate(pattern) if p == 2]
        alpha = np.zeros(n)
        alpha[capped] = cap
        remaining = 1.0 - cap * len(capped)
        if not free:
            if abs(remaining) > 1e-12:
                continue
        else:
            m = len(free)
            system = np.zeros((m + 1, m + 1))
            system[:m, :m] = K[np.ix_(free, free)]
            system[:m, m] = -1.0  # multiplier for the sum constraint
            system[m, :m] = 1.0
            rhs = np.zeros(m + 1)
            if capped:
                rhs[:m] = -cap * K[np.ix_(free, capped)].sum(axis=1)
            rhs[m] = remaining
            try:
                sol = np.linalg.solve(system, rhs)
            except np.linalg.LinAlgError:
                continue
            a_free = sol[:m]
            if np.any(a_free < -1e-10) or np.any(a_free > cap + 1e-10):
                continue
            alpha[free] = np.clip(a_free, 0.0, cap)
        obj = 0.5 * float(alpha @ K @ alpha)
        if obj < best_obj:
            best_obj = obj
            best_alpha = alpha
    assert best_alpha is not None, "no feasible support pattern found"
    return best_obj, best_alpha


def bisection_capped_simplex(v: np.ndarray, cap: float) -> np.ndarray:
    """Projection onto {0 <= a <= cap, sum(a) = 1} by 100 bisection steps
    on the shift tau in a_i = clip(v_i - tau, 0, cap), then an exact
    recomputation of tau on the identified free set."""
    v = np.asarray(v, dtype=np.float64)
    lo = float(v.min()) - cap - 1.0
    hi = float(v.max())
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if np.clip(v - mid, 0.0, cap).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    tau = 0.5 * (lo + hi)
    a = np.clip(v - tau, 0.0, cap)
    free = (a > 0.0) & (a < cap)
    n_free = int(free.sum())
    if n_free > 0:
        capped = float(cap * (a >= cap).sum())
        tau = (v[free].sum() - (1.0 - capped)) / n_free
        a = np.clip(v - tau, 0.0, cap)
    return a


# ----------------------------------------------------------------- EER


def reference_eer(scores: Sequence[float], genuine: Sequence[bool]) -> float:
    """EER by explicit counting at every candidate threshold.

    Accept-if-score-at-least-threshold convention; the crossing is
    interpolated linearly between the bracketing operating points.
    """
    gen = [s for s, g in zip(scores, genuine) if g]
    imp = [s for s, g in zip(scores, genuine) if not g]
    assert gen and imp
    thresholds = [float("inf")] + sorted(set(scores), reverse=True)
    prev_far = prev_frr = None
    for t in thresholds:
        far = sum(1 for s in imp if s >= t) / len(imp)
        frr = sum(1 for s in gen if s < t) / len(gen)
        if far == frr:
            return far
        if far > frr:
            assert prev_far is not None
            d_prev = prev_far - prev_frr
            d_here = far - frr
            w = d_prev / (d_prev - d_here)
            return prev_far + w * (far - prev_far)
        prev_far, prev_frr = far, frr
    raise AssertionError("no crossing found")


# ----------------------------------------------------------- alignment


def reference_align(given, target, *, merge_shift_keys: bool = False):
    """Alignment by exhaustive search: for each target position, scan every
    given index for the nearest unconsumed one with the same key (ties to
    the smaller index), then substitute the rest the same way regardless
    of key. The quadratic form that the key-indexed ``align`` replaced."""
    from keygait import AlignmentError, AlignmentMapping, KeystrokeSequence, SHIFT_KEYS
    from keygait.alignment import EntryKind, MappingEntry

    if len(target) == 0:
        raise AlignmentError("target sequence is empty")
    if len(given) == 0:
        raise AlignmentError("given sequence is empty")

    def key(name: str) -> str:
        return "shift" if merge_shift_keys and name in SHIFT_KEYS else name

    given_keys = [key(k.key) for k in given]
    target_keys = [key(k.key) for k in target]
    consumed = [False] * len(given_keys)
    chosen: list = [None] * len(target_keys)

    def nearest(i: int, same_key: bool) -> int:
        best, best_dist = -1, float("inf")
        for j, gkey in enumerate(given_keys):
            if consumed[j] or (same_key and gkey != target_keys[i]):
                continue
            if abs(j - i) < best_dist:
                best, best_dist = j, abs(j - i)
        return best

    for i in range(len(target_keys)):
        best = nearest(i, same_key=True)
        if best >= 0:
            consumed[best] = True
            chosen[i] = MappingEntry(EntryKind.MATCHED, best)
    flagged = False
    for i in range(len(target_keys)):
        if chosen[i] is not None:
            continue
        pick = i if i < len(given_keys) and not consumed[i] else nearest(i, same_key=False)
        if pick >= 0:
            consumed[pick] = True
        else:
            pick = len(given_keys) - 1
            flagged = True
        chosen[i] = MappingEntry(EntryKind.SUBSTITUTED, pick)
    ignored = tuple(j for j, used in enumerate(consumed) if not used)
    mapping = AlignmentMapping(len(target_keys), tuple(chosen), ignored, flagged)
    aligned = KeystrokeSequence(tuple(given[e.given_index] for e in chosen), aligned=True)
    return aligned, mapping


# ------------------------------------------------------------ features


def reference_normalized_features(templates, queries, *, h_f: float = 1.0, per_position: bool = False):
    """Per-sequence feature preparation: one duration and latency vector
    per aligned sequence, bounds fitted on the stacked template vectors,
    then each vector scaled on its own. Returns (template rows, query rows)."""

    def raw(seq):
        press = np.array([k.press_t for k in seq], dtype=float)
        release = np.array([k.release_t for k in seq], dtype=float)
        return release - press, np.diff(press)

    t_raw = [raw(s) for s in templates]
    d = np.stack([r[0] for r in t_raw])
    p = np.stack([r[1] for r in t_raw])
    if per_position:
        bounds = (d.mean(axis=0), d.std(axis=0), p.mean(axis=0), p.std(axis=0))
    else:
        bounds = (float(d.mean()), float(d.std()), float(p.mean()), float(p.std()))

    def scale(x, mu, sigma):
        half = np.maximum(np.asarray(sigma, dtype=float) * h_f, 0.5)
        return np.clip((x - (np.asarray(mu, dtype=float) - half)) / (2.0 * half), 0.0, 1.0)

    def normalize(r):
        mu_d, sigma_d, mu_p, sigma_p = bounds
        return np.concatenate([scale(r[0], mu_d, sigma_d), scale(r[1], mu_p, sigma_p)])

    return [normalize(r) for r in t_raw], [normalize(raw(s)) for s in queries]
