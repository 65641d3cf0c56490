"""Independent reference implementations used only by tests.

These are deliberately written with different algorithms than the
package (graph search instead of dynamic programming, the full dynamic
program instead of a banded one, enumeration instead of iterative
optimization, finite differences instead of backpropagation) so
agreement is meaningful. Frozen: do not adapt these to match the
implementation; fix the implementation instead.
"""

from __future__ import annotations

import itertools
import os
import re
from collections import deque
from pathlib import Path
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


def reference_damerau_levenshtein(a: Sequence[str], b: Sequence[str]) -> int:
    """Unrestricted (Lowrance-Wagner) Damerau-Levenshtein distance by the
    full dynamic program, every cell filled: the unbanded form of
    ``keygait.damerau_levenshtein``."""
    la, lb = len(a), len(b)
    if la == 0:
        return lb
    if lb == 0:
        return la
    maxdist = la + lb
    # d has two extra rows/cols: index 0 plays the role of "-1".
    d = [[maxdist] * (lb + 2) for _ in range(la + 2)]
    for i in range(la + 1):
        d[i + 1][1] = i
    for j in range(lb + 1):
        d[1][j + 1] = j
    da: dict[str, int] = {}
    for i in range(1, la + 1):
        db = 0
        for j in range(1, lb + 1):
            k = da.get(b[j - 1], 0)
            l = db
            if a[i - 1] == b[j - 1]:
                cost = 0
                db = j
            else:
                cost = 1
            d[i + 1][j + 1] = min(
                d[i][j] + cost,  # substitution / match
                d[i + 1][j] + 1,  # insertion
                d[i][j + 1] + 1,  # deletion
                d[k][l] + (i - k - 1) + 1 + (j - l - 1),  # transposition
            )
        da[a[i - 1]] = i
    return d[la + 1][lb + 1]


# ---------------------------------------------------------- event format


def seq(keystrokes=(), aligned: bool = False):
    """The sequence of ``(key, press_t, release_t)`` rows, through the
    checked constructor."""
    from keygait import KeystrokeSequence

    keys, press, release = zip(*keystrokes) if keystrokes else ((), (), ())
    return KeystrokeSequence(keys, press, release, aligned)


def rows(sequence) -> list[tuple[str, int, int]]:
    """The ``(key, press_t, release_t)`` rows of ``sequence``, as Python
    ``str`` and ``int`` values."""
    return list(zip(sequence.keys(), sequence.press.tolist(), sequence.release.tolist()))


def reference_serialize_events(seq) -> str:
    """The event-file text of an unaligned sequence anchored at t=0: one
    ``(time, keystroke, release?)`` tuple per event, sorted by Python, and
    one f-string per line."""
    from keygait.scancodes import scancode_for

    events = sorted(
        [(p, i, False, key) for i, (key, p, _) in enumerate(rows(seq))]
        + [(r, i, True, key) for i, (key, _, r) in enumerate(rows(seq))]
    )
    lines, last = [], 0
    for t, _, release, key in events:
        lines.append(f"{'R' if release else 'P'} {scancode_for(key):02x} {t - last}\n")
        last = t
    return "".join(lines)


# The form serialize_events writes, as a regex over a file's bytes:
# lower-case hex and decimal ASCII digits short enough for int64, single
# spaces, and "\n" after every line, the last one too.
CANONICAL_FORM = re.compile(rb"(?:[PR] [0-9a-f]{1,8} [0-9]{1,16}\n)*")


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
    """The package's closed form, written out: a per-subject fit must
    match the stacked one to the byte, so both use the same expression;
    the package's sigmoid is pinned to :func:`reference_expit` instead."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def reference_expit(z: np.ndarray) -> np.ndarray:
    """``scipy.special.expit``, the logistic sigmoid scipy evaluates in
    its own C loop."""
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


def reference_contractive_grads(params: dict, X: np.ndarray, reg_weight: float) -> dict:
    """Contractive autoencoder gradients with each path through W as its
    own (hidden, d) product: decoder HᵀG_y, encoder G_hᵀX, and the
    penalty's paths through h and through W directly. The package stores
    W as (d, hidden); this works on its transpose and hands the gradient
    back in the package's layout."""
    W, bh, by = params["W"].T, params["bh"], params["by"]
    H = _sigmoid(X @ W.T + bh)
    Y = _sigmoid(H @ W + by)
    S = H * (1.0 - H)
    r = (W**2).sum(axis=1)
    gv = 2.0 * (Y - X) * Y * (1.0 - Y)
    gz = (gv @ W.T) * S
    T = (S**2) * (1.0 - 2.0 * H)
    penalty_W = 2.0 * (T * r).T @ X + 2.0 * (S**2).sum(axis=0)[:, None] * W
    return {
        "W": (H.T @ gv + gz.T @ X + reg_weight * penalty_W).T,
        "bh": gz.sum(axis=0) + reg_weight * 2.0 * (T.sum(axis=0) * r),
        "by": gv.sum(axis=0),
    }


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


def reference_align(given, target):
    """Alignment by exhaustive search: for each target position, scan every
    given index for the nearest unconsumed one with the same key (ties to
    the smaller index), then substitute the rest the same way regardless
    of key. The quadratic form that the key-indexed ``align`` replaced."""
    from keygait import AlignmentError, AlignmentMapping

    if len(target) == 0:
        raise AlignmentError("target sequence is empty")
    if len(given) == 0:
        raise AlignmentError("given sequence is empty")

    given_keys = list(given.keys())
    target_keys = list(target.keys())
    consumed = [False] * len(given_keys)
    index = [-1] * len(target_keys)

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
            index[i] = best
    substituted = tuple(j < 0 for j in index)
    flagged = False
    for i in range(len(target_keys)):
        if not substituted[i]:
            continue
        pick = i if i < len(given_keys) and not consumed[i] else nearest(i, same_key=False)
        if pick >= 0:
            consumed[pick] = True
        else:
            pick = len(given_keys) - 1
            flagged = True
        index[i] = pick
    ignored = tuple(j for j, used in enumerate(consumed) if not used)
    mapping = AlignmentMapping(tuple(index), substituted, ignored, flagged)
    given_rows = rows(given)
    aligned = seq([given_rows[j] for j in index], aligned=True)
    return aligned, mapping


def reference_align_subject(templates, queries, method):
    """Each template and query aligned on its own onto the subject's
    target, one aligned sequence each: ``reference_align`` for ``align``; for
    ``truncate`` the first len(target) rows, the last one repeated to
    fill; for ``discard`` the same after dropping the Shift and Caps Lock
    rows. The target is the first shortest template that is non-empty
    after that dropping. A sequence that cannot be aligned (empty, or
    empty once its modifiers are dropped) is None. Returns (template rows,
    query rows); ValueError when no template is non-empty."""
    from keygait import AlignmentError

    def kept(sequence):
        if method == "discard":
            return [r for r in rows(sequence) if r[0] not in ("lshift", "rshift", "capslock")]
        return rows(sequence)

    lengths = [len(kept(s)) for s in templates]
    target = templates[min((n, i) for i, n in enumerate(lengths) if n)[1]]
    n = len(kept(target))

    def one(sequence):
        if method == "align":
            try:
                return reference_align(sequence, target)[0]
            except AlignmentError:
                return None
        given = kept(sequence)
        return seq([given[min(i, len(given) - 1)] for i in range(n)], aligned=True) if given else None

    return [one(s) for s in templates], [one(s) for s in queries]


# ------------------------------------------------------------ features


def reference_normalized_features(templates, queries, *, h_f: float = 1.0):
    """Per-sequence feature preparation: one duration and latency vector
    per aligned sequence, bounds fitted on the stacked template vectors,
    then each vector scaled on its own. Returns (template rows, query rows)."""

    def raw(sequence):
        press = np.array([p for _, p, _ in rows(sequence)], dtype=float)
        release = np.array([r for _, _, r in rows(sequence)], dtype=float)
        return release - press, np.diff(press)

    t_raw = [raw(s) for s in templates]
    d = np.stack([r[0] for r in t_raw])
    p = np.stack([r[1] for r in t_raw])
    bounds = (float(d.mean()), float(d.std()), float(p.mean()), float(p.std()))

    def scale(x, mu, sigma):
        half = np.maximum(np.asarray(sigma, dtype=float) * h_f, 0.5)
        return np.clip((x - (np.asarray(mu, dtype=float) - half)) / (2.0 * half), 0.0, 1.0)

    def normalize(r):
        mu_d, sigma_d, mu_p, sigma_p = bounds
        return np.concatenate([scale(r[0], mu_d, sigma_d), scale(r[1], mu_p, sigma_p)])

    return [normalize(r) for r in t_raw], [normalize(raw(s)) for s in queries]


# ------------------------------------------------------------ resolution


def reference_resolution(latencies) -> float | None:
    """The clock quantum by phase coherence, or None when no candidate is
    coherent: one candidates x latencies matrix over every latency (no
    de-duplication), and the runs of coherent candidates found by a plain
    scan."""
    values = np.asarray(latencies, dtype=np.float64)
    values = values[np.isfinite(values) & (values >= 0.0) & (values <= 500.0)]
    if values.size == 0:
        return None
    top = int(5.0 * (values.max() - values.min()))
    quanta = [k / 10.0 for k in range(20, top + 1)]
    if not quanta:
        return None
    turns = np.exp(2j * np.pi * values[None, :] / np.array(quanta)[:, None])
    coherence = np.abs(turns.mean(axis=1)).tolist()
    runs, run = [], []
    for k, r in enumerate(coherence):
        if r >= 0.9:
            run.append(k)
        elif run:
            runs.append(run)
            run = []
    if run:
        runs.append(run)
    if not runs:
        return None
    best = max(runs[-1], key=lambda k: (coherence[k], -k))
    return quanta[best]


# ------------------------------------------------------------ synthesis


def reference_make_profile(rng, keys, scale: float) -> dict:
    """Per-key (duration, latency) medians, one scalar draw at a time."""
    from keygait import synthesis as syn
    from keygait.scancodes import MODIFIER_KEYS

    profile = {}
    for key in sorted(keys):
        if key in MODIFIER_KEYS:
            base_d, base_p = syn.MODIFIER_DURATION_MS, syn.MODIFIER_LATENCY_MS
            spread = syn.MODIFIER_BETWEEN_SD
        else:
            base_d, base_p = syn.LETTER_DURATION_MS, syn.LETTER_LATENCY_MS
            spread = syn.BETWEEN_SUBJECT_SD
        dur = base_d * float(np.exp(scale * rng.normal(0.0, spread)))
        lat = base_p * float(np.exp(scale * rng.normal(0.0, spread)))
        profile[key] = (dur, lat)
    return profile


def reference_time_keys(keys, profile, rng, config):
    """A timed rendition of ``keys``, drawn and rounded one keystroke at a
    time with Python's ``round``."""
    from keygait.synthesis import WITHIN_SAMPLE_SD as sd

    n = len(keys)
    durations = np.empty(n)
    latencies = np.empty(n)
    for i, key in enumerate(keys):
        med_d, med_p = profile[key]
        durations[i] = med_d * np.exp(rng.normal(0.0, sd))
        latencies[i] = med_p * np.exp(rng.normal(0.0, sd))
    if config.hesitation_rate > 0 and n > 1 and rng.uniform() < config.hesitation_rate:
        count = min(int(rng.integers(1, 4)), n - 1)
        where = rng.choice(np.arange(1, n), size=count, replace=False)
        latencies[where] *= rng.uniform(3.0, 6.0, size=count)
    press = 0
    q = config.clock_quantum_ms
    presses = np.empty(n, dtype=np.int64)
    releases = np.empty(n, dtype=np.int64)
    for i in range(n):
        if i > 0:
            press += max(1, int(round(latencies[i])))
        presses[i] = press
        releases[i] = press + max(1, int(round(durations[i])))
    next_press: dict[str, int] = {}
    gap = max(1, q)
    for i in range(n - 1, -1, -1):
        if keys[i] in next_press:
            releases[i] = min(releases[i], next_press[keys[i]] - gap)
        releases[i] = max(releases[i], presses[i])
        next_press[keys[i]] = int(presses[i])
    if q > 0:
        presses = (presses // q) * q
        releases = (releases // q) * q
    return seq([(k, int(p), int(r)) for k, p, r in zip(keys, presses, releases)])


def reference_perturb(canonical, rng, config, subject_id, sample_id, log):
    """A perturbed rendition of ``canonical`` in two passes: every Shift's
    fate is drawn first, in key order, then the fates are applied."""
    from keygait.scancodes import SHIFT_KEYS
    from keygait.synthesis import PerturbationRecord

    p_caps = config.capslock_sub
    p_drop = config.shift_drop
    p_trans = config.shift_transpose
    fates: dict[int, str] = {}
    for i, key in enumerate(canonical):
        if key not in SHIFT_KEYS:
            continue
        u = float(rng.uniform())
        if u < p_caps:
            fates[i] = "capslock_sub"
        elif u < p_caps + p_drop:
            fates[i] = "shift_drop"
        elif u < p_caps + p_drop + p_trans and i + 1 < len(canonical):
            fates[i] = "shift_transpose"
    result: list[str] = []
    i = 0
    while i < len(canonical):
        fate = fates.get(i)
        if fate is not None:
            log.append(PerturbationRecord(subject_id, sample_id, fate, i))
        if fate == "shift_drop":
            i += 1
        elif fate == "capslock_sub":
            result.append("capslock")
            i += 1
        elif fate == "shift_transpose":
            result.append(canonical[i + 1])
            result.append(canonical[i])
            i += 2
        else:
            result.append(canonical[i])
            i += 1
    return result


# ---------------------------------------------------------- score records


def _by_sample(records) -> list:
    return sorted(records, key=lambda r: (r.subject_id, r.sample_id))


def reference_member_mean(members) -> np.ndarray:
    """An ensemble's raw scores: its members' score arrays summed one at a
    time, left to right, and divided by their count."""
    total = members[0]
    for scores in members[1:]:
        total = total + scores
    return total / len(members)


def reference_normalize_scores(prepared, raws, config) -> list:
    """Stage 3 one record at a time: each subject's raw scores through
    ``normalize_subject`` into a ``ScoreRecord`` per query, the records
    sorted by (subject_id, sample_id)."""
    from keygait.errors import ScoreNormError
    from keygait.scorenorm import SENTINEL_SCORE, ScoreRecord, normalize_subject

    norm = config.score_norm
    records = []
    for p, raw in zip(prepared, raws):
        flagged = ~np.isfinite(raw)
        raw = np.where(flagged, SENTINEL_SCORE, raw)
        flags = flagged.tolist()
        try:
            normalized = normalize_subject(p.subject_id, raw.tolist(), flags, norm)
        except ScoreNormError:
            raw = np.full_like(raw, SENTINEL_SCORE)
            flags = [True] * len(flags)
            normalized = normalize_subject(p.subject_id, raw.tolist(), flags, norm)
        records.extend(
            ScoreRecord(p.subject_id, q, r, n, label, f)
            for q, r, n, label, f in zip(p.query_ids, raw.tolist(), normalized, p.query_labels, flags)
        )
    return _by_sample(records)


def by_subject(records) -> dict[str, list]:
    """Records grouped by subject id, each group in record order."""
    out: dict[str, list] = {}
    for r in records:
        out.setdefault(r.subject_id, []).append(r)
    return out


def reference_written_scores(records) -> list:
    """Each record's ``score`` formatted to six decimals and parsed back
    into ``raw_score``, labels and flags kept, sorted by (subject_id,
    sample_id)."""
    from keygait.datasets import tsv
    from keygait.scorenorm import ScoreRecord

    records = list(records)
    values = tsv((r.score,) for r in records).split()
    return _by_sample(
        ScoreRecord(r.subject_id, r.sample_id, float(v), None, r.label, r.flagged)
        for r, v in zip(records, values)
    )


def reference_write_scores(records, *, normalized: bool = True) -> str:
    """The text of a score file, one record at a time through ``tsv``."""
    from keygait.datasets import tsv

    return tsv((r.subject_id, r.sample_id, r.score if normalized else r.raw_score) for r in records)


def effective_scores(records) -> tuple[list[float], list[bool]]:
    """Each record's ``score`` and whether it is genuine, in record order."""
    from keygait.errors import EvaluationError
    from keygait.events import Label

    values: list[float] = []
    genuine: list[bool] = []
    for r in records:
        if r.label is None:
            raise EvaluationError(f"record {r.subject_id}/{r.sample_id} has no label")
        values.append(r.score)
        genuine.append(r.label is Label.GENUINE)
    return values, genuine


def reference_global_eer(records) -> float:
    from keygait.evaluation import roc

    return roc(*effective_scores(records)).eer()


def reference_subject_eer(records) -> tuple[dict[str, float], float, float]:
    """Per-subject EERs from each subject's records, and their mean and
    population SD."""
    from keygait.errors import EvaluationError
    from keygait.evaluation import roc

    records = list(records)
    if not records:
        raise EvaluationError("no scores to evaluate")
    per_subject: dict[str, float] = {}
    for subject_id, group in sorted(by_subject(records).items()):
        values, genuine = effective_scores(group)
        try:
            per_subject[subject_id] = roc(values, genuine).eer()
        except EvaluationError as exc:
            raise EvaluationError(f"subject {subject_id}: {exc}") from exc
    eers = np.array(list(per_subject.values()))
    return per_subject, float(eers.mean()), float(eers.std())


# ---------------------------------------------------------- broken datasets


def broken_datasets(base: Path) -> list[tuple[str, Path, str]]:
    """A corpus of broken dataset directories written under ``base``: per
    case, its name, the directory to load it from and the root to give
    ``load_dataset`` there. Every root is relative, so each problem line
    and warning reads the same wherever ``base`` is. The ``fifo`` case is
    left out where there is no ``os.mkfifo``."""
    from keygait import SynthConfig, generate_synthetic, write_dataset

    # 2 subjects of 3 templates and 4 queries: 14 event files
    tiny, _ = generate_synthetic(
        SynthConfig(n_subjects=2, n_templates=3, genuine_queries=(2, 2), impostor_queries=(2, 2), seed=3)
    )

    def written(name, dataset=tiny):
        write_dataset(dataset, base / name)
        return base / name

    cases = []
    root = written("manifest")
    with open(root / "manifest.tsv", "a") as manifest:
        manifest.write(
            "s001\tq05\tquery\n"  # three fields
            "\n"  # blank: skipped
            "s001\t..\tquery\t?\n"  # a sample id that leaves the subject
            "s0/1\tq05\tquery\t?\n"  # a subject id with a slash
            "s001\tq06\tprobe\t?\n"  # an unknown role
            "s001\tq07\tquery\tmaybe\n"  # an unknown label
            "s001\tq01\tquery\tgenuine\n"  # a duplicate sample
        )
    cases.append(("manifest", base, "manifest"))

    root = written("files")
    (root / "s001" / "q01.txt").unlink()  # missing
    (root / "s001" / "q02.txt").unlink()
    (root / "s001" / "q02.txt").mkdir()  # a directory
    (root / "s001" / "q03.txt").write_bytes(b"P 1e 0\n\xff\n")  # undecodable
    (root / "s001" / "q04.txt").write_bytes(b"P 1e 0\nR 30 10\n")  # a release with no press
    crlf = root / "s002" / "t01.txt"  # CRLF line ends: no problem
    crlf.write_bytes(crlf.read_bytes().replace(b"\n", b"\r\n"))
    (root / "s002" / "t02.txt").write_bytes(b"P 1e 0\nR 1e -4\n")  # a signed delta
    cases.append(("files", base, "files"))

    if hasattr(os, "mkfifo"):
        root = written("fifo")
        (root / "s002" / "q01.txt").unlink()
        os.mkfifo(root / "s002" / "q01.txt")  # a FIFO with no writer
        cases.append(("fifo", base, "fifo"))

    root = base / "keys"  # loads, with one warning and one silent repair
    (root / "s1").mkdir(parents=True)
    (root / "manifest.tsv").write_text(
        "subject_id\tsample_id\trole\tlabel\ns1\tunreleased\tquery\t?\ns1\trepressed\tquery\t?\n"
    )
    (root / "s1" / "unreleased.txt").write_text("P 1e 0\nR 1e 3\nP 30 2\n")
    (root / "s1" / "repressed.txt").write_text("P 1e 0\nP 1e 5\nR 1e 3\n")  # 'a' pressed while held
    cases.append(("keys", base, "keys"))

    root = written("impostor-template")
    manifest = root / "manifest.tsv"
    text = manifest.read_text()
    for sample in ("t01", "t02"):  # t01 with a bad file, which is named first, t02 with a good one
        text = text.replace(f"s001\t{sample}\ttemplate\tgenuine", f"s001\t{sample}\ttemplate\timpostor")
    manifest.write_text(text)
    (root / "s001" / "t01.txt").write_bytes(b"P 1e 0\nR 1e x\n")
    cases.append(("impostor-template", base, "impostor-template"))

    # 12 subjects of 24 samples: 288 event files, three blocks of at most 128
    root = written("last-block", generate_synthetic(SynthConfig(n_subjects=12, seed=0))[0])
    *_, before_last, last = (root / "manifest.tsv").read_text().splitlines()
    path = root.joinpath(*before_last.split("\t")[:2]).with_suffix(".txt")
    text = path.read_text()
    path.write_text(text[: text.rstrip("\n").rindex("\n") + 1])  # its last release gone
    root.joinpath(*last.split("\t")[:2]).with_suffix(".txt").write_bytes(b"P 1e 0\nR 1e 0x4\n")
    cases.append(("last-block", base, "last-block"))

    root = written("x")
    (root / "s001" / "q01.txt").unlink()
    cases += [("x", base, "x"), ("x/", base, "x/")]
    cases += [(name, root, name) for name in (".", "./", "")]
    return cases
