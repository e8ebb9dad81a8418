"""Finite-alphabet probability primitives.

PMFs, joint distributions, channels, KL divergences, mutual information
and channel capacity. Everything is in nats; infinities are representable
and propagate (p*log(p/0) = +inf, 0*log(0/q) = 0).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import InputError

PMF_TOL = 1e-12
CAPACITY_TOL = 1e-9
CAPACITY_MAX_ITER = 100_000


def _as_prob_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise InputError(f"{name}: empty probability vector")
    if np.any(np.isnan(arr)):
        raise InputError(f"{name}: NaN entries")
    if np.any(arr < 0):
        raise InputError(f"{name}: negative entries")
    return arr


@dataclass(frozen=True)
class Pmf:
    """Probability vector over a named finite alphabet."""

    alphabet: tuple
    probs: np.ndarray

    def __init__(self, alphabet: Sequence, probs) -> None:
        alphabet = tuple(alphabet)
        if len(set(alphabet)) != len(alphabet):
            raise InputError("Pmf: alphabet labels must be distinct")
        arr = _as_prob_array(probs, "Pmf")
        if arr.ndim != 1 or arr.size != len(alphabet):
            raise InputError("Pmf: probs length must match alphabet")
        if abs(arr.sum() - 1.0) > PMF_TOL:
            raise InputError(f"Pmf: probabilities sum to {arr.sum()!r}, not 1")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "probs", arr)

    def __len__(self) -> int:
        return len(self.alphabet)


@dataclass(frozen=True)
class JointPmf:
    """Joint PMF over a row alphabet and a column alphabet."""

    row_alphabet: tuple
    col_alphabet: tuple
    probs: np.ndarray

    def __init__(self, row_alphabet: Sequence, col_alphabet: Sequence, probs) -> None:
        row_alphabet = tuple(row_alphabet)
        col_alphabet = tuple(col_alphabet)
        if len(set(row_alphabet)) != len(row_alphabet) or len(set(col_alphabet)) != len(col_alphabet):
            raise InputError("JointPmf: alphabet labels must be distinct")
        arr = _as_prob_array(probs, "JointPmf")
        if arr.shape != (len(row_alphabet), len(col_alphabet)):
            raise InputError("JointPmf: matrix shape must match alphabets")
        if abs(arr.sum() - 1.0) > PMF_TOL:
            raise InputError(f"JointPmf: entries sum to {arr.sum()!r}, not 1")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "row_alphabet", row_alphabet)
        object.__setattr__(self, "col_alphabet", col_alphabet)
        object.__setattr__(self, "probs", arr)

    def row_marginal(self) -> Pmf:
        return Pmf(self.row_alphabet, self.probs.sum(axis=1))

    def col_marginal(self) -> Pmf:
        return Pmf(self.col_alphabet, self.probs.sum(axis=0))

    def flatten(self) -> Pmf:
        """View the joint as a Pmf over the product alphabet."""
        labels = tuple((r, c) for r in self.row_alphabet for c in self.col_alphabet)
        return Pmf(labels, self.probs.reshape(-1))


@dataclass(frozen=True)
class Channel:
    """Row-stochastic transition matrix over finite input/output alphabets."""

    input_alphabet: tuple
    output_alphabet: tuple
    rows: np.ndarray

    def __init__(self, input_alphabet: Sequence, output_alphabet: Sequence, rows) -> None:
        input_alphabet = tuple(input_alphabet)
        output_alphabet = tuple(output_alphabet)
        if len(set(input_alphabet)) != len(input_alphabet) or len(set(output_alphabet)) != len(output_alphabet):
            raise InputError("Channel: alphabet labels must be distinct")
        arr = _as_prob_array(rows, "Channel")
        if arr.shape != (len(input_alphabet), len(output_alphabet)):
            raise InputError("Channel: matrix shape must match alphabets")
        sums = arr.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > PMF_TOL):
            bad = int(np.argmax(np.abs(sums - 1.0)))
            raise InputError(f"Channel: row {input_alphabet[bad]!r} sums to {sums[bad]!r}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "input_alphabet", input_alphabet)
        object.__setattr__(self, "output_alphabet", output_alphabet)
        object.__setattr__(self, "rows", arr)

    def violating_row_pair(self):
        """First (lexicographic) input pair whose rows do not share support, or None."""
        supports = self.rows > 0
        n = len(self.input_alphabet)
        for i in range(n):
            for j in range(i + 1, n):
                if not np.array_equal(supports[i], supports[j]):
                    return (self.input_alphabet[i], self.input_alphabet[j])
        return None

    @functools.cached_property
    def pair_scores(self) -> np.ndarray:
        """S[i, j, y] = log W(y|j) - log W(y|i): 0 where both rows vanish,
        -inf where only row j does and +inf where only row i does."""
        live = self.rows > 0
        logw = np.log(np.where(live, self.rows, 1.0))
        scores = logw[None, :, :] - logw[:, None, :]
        scores[live[:, None] & ~live[None, :]] = -np.inf
        scores[~live[:, None] & live[None, :]] = np.inf
        scores.flags.writeable = False
        return scores

    @staticmethod
    def bsc(p: float) -> "Channel":
        if not 0.0 <= p <= 1.0:
            raise InputError("BSC crossover must lie in [0, 1]")
        return Channel((0, 1), (0, 1), np.array([[1 - p, p], [p, 1 - p]]))


def _check_same_alphabet(p: Pmf, q: Pmf) -> None:
    if p.alphabet != q.alphabet:
        raise InputError("PMFs are defined on different alphabets")


def kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """KL divergence D(p_k || q_k) in nats of every row of a 2-D stack p
    against q (one row, or one per row of p): the one kernel that sums a KL
    divergence.

    Each row sums only the terms on its support, and numpy's summation order
    depends on how many there are, so a row's value must not depend on the
    stack it is in. numpy adds fewer than 8 terms one by one, in order, so
    such a row is the running sum of its whole row with zeros off its
    support: no term is -0.0, and adding +0.0 changes no bits. Rows of 8 or
    more terms, which numpy sums pairwise, are summed in groups of equal
    support size, each row's terms in their order. A term p/0 is +inf,
    which makes a row off q's support +inf.
    """
    p = np.ascontiguousarray(p, dtype=float)
    mask = p > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = p * np.log(p / q)
    out = np.where(mask, terms, 0.0).cumsum(axis=1)[:, -1]
    if p.shape[1] >= 8:
        counts = mask.sum(axis=1)
        for k in set(counts[counts >= 8].tolist()):
            rows = np.flatnonzero(counts == k)
            out[rows] = terms[rows][mask[rows]].reshape(len(rows), k).sum(axis=1)
    return out


def kl_row_groups(pairs) -> list[np.ndarray]:
    """`kl_rows` of several (p, q) pairs of 2-D stacks in one call, each q
    one row or one per row of its p, the widths free: the rows are
    zero-padded to the widest. A zero p entry adds no term, so every row
    keeps its bits. Returns the divergences of each pair."""
    ends = np.cumsum([len(p) for p, _ in pairs]).tolist()
    width = max(np.shape(p)[1] for p, _ in pairs)
    p_all, q_all = np.zeros((2, ends[-1], width))
    for (p, q), start, end in zip(pairs, [0, *ends], ends):
        p_all[start:end, :np.shape(p)[1]] = p
        q_all[start:end, :np.shape(p)[1]] = q
    div = kl_rows(p_all, q_all)
    return [div[start:end] for start, end in zip([0, *ends], ends)]


def kl_array(p: np.ndarray, q: np.ndarray) -> float:
    """KL divergence between raw probability arrays, in nats: the one-row
    `kl_rows`."""
    return float(kl_rows(np.reshape(p, (1, -1)),
                         np.asarray(q, dtype=float).reshape(-1))[0])


def kl_divergence(p: Pmf, q: Pmf) -> float:
    """D(p || q) in nats; +inf when p is not absolutely continuous w.r.t. q."""
    _check_same_alphabet(p, q)
    return kl_array(p.probs, q.probs)


def conditional_kl_rows(w: np.ndarray, p: np.ndarray, q: np.ndarray
                        ) -> np.ndarray:
    """sum_k w_k D(p_k || q_k) of each problem of the stacks w (B, K) and
    p, q (B, K, n), over the components with w_k > 0: the one weighted
    divergence. +inf propagates.

    The terms are added one component at a time from 0.0: numpy's own sum
    regroups them from 8 terms up, which would move the last digits. A zero
    weight adds +0.0, which changes no bits of a sum that starts at +0.0,
    and never multiplies a +inf divergence into NaN.
    """
    n = p.shape[-1]
    div = kl_rows(p.reshape(-1, n), q.reshape(-1, n)).reshape(w.shape)
    total = 0.0
    for k in range(w.shape[1]):
        total = total + w[:, k] * np.where(w[:, k] > 0, div[:, k], 0.0)
    return total


def conditional_kl_arrays(w: np.ndarray, p: np.ndarray, q: np.ndarray):
    """sum_k w_k D(p_k || q_k) over the rows k of the 2-D stacks p and q:
    the one-problem `conditional_kl_rows`."""
    return conditional_kl_rows(w[None], p[None], q[None])[0]


def mutual_information_arrays(joint: np.ndarray) -> float:
    """Mutual information of a raw joint matrix (no Pmf wrapping): the
    one-joint `mutual_information_rows`."""
    return float(mutual_information_rows(joint[None])[0])


def mutual_information_pairs(joints: np.ndarray
                             ) -> tuple[np.ndarray, np.ndarray]:
    """The flat rows P_XY and P_X P_Y of every joint in a (B, |X|, |Y|)
    stack, whose `kl_rows` is I(X;Y)."""
    joints = np.ascontiguousarray(joints, dtype=float)
    n, n_x, n_y = joints.shape
    px = joints.sum(axis=2)
    py = joints.sum(axis=1)
    return (joints.reshape(n, n_x * n_y),
            (px[:, :, None] * py[:, None, :]).reshape(n, n_x * n_y))


def mutual_information_rows(joints: np.ndarray) -> np.ndarray:
    """I(X;Y) = D(P_XY || P_X P_Y) in nats of every joint in a
    (B, |X|, |Y|) stack."""
    return kl_rows(*mutual_information_pairs(joints))


def capacity(ch: Channel) -> float:
    """Channel capacity in nats via alternating maximization.

    Deterministic uniform initialization; iterates until the gap between the
    capacity upper and lower estimates drops below CAPACITY_TOL, for at most
    CAPACITY_MAX_ITER updates.
    """
    w = ch.rows
    r = np.full(w.shape[0], 1.0 / w.shape[0])
    for _ in range(CAPACITY_MAX_ITER):
        d = kl_rows(w, r @ w)  # D(W_x || q_Y) of every input x
        upper = float(np.max(d))
        lower = float(np.sum(r * d))
        if upper - lower < CAPACITY_TOL:
            return max(lower, 0.0)
        r = r * np.exp(d - upper)
        r /= r.sum()
    return max(lower, 0.0)
