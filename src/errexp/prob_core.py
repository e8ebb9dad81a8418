"""Finite-alphabet probability primitives.

PMFs, joint distributions, channels, empirical types, KL divergences,
mutual information and channel capacity. Everything is in nats; infinities
are representable and propagate (p*log(p/0) = +inf, 0*log(0/q) = 0).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .exceptions import InputError

PMF_TOL = 1e-12

Symbol = object  # alphabet labels are arbitrary hashable objects


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

    def index(self, symbol) -> int:
        try:
            return self.alphabet.index(symbol)
        except ValueError:
            raise InputError(f"symbol {symbol!r} not in alphabet") from None

    def prob(self, symbol) -> float:
        return float(self.probs[self.index(symbol)])

    @staticmethod
    def uniform(alphabet: Sequence) -> "Pmf":
        alphabet = tuple(alphabet)
        return Pmf(alphabet, np.full(len(alphabet), 1.0 / len(alphabet)))

    @staticmethod
    def point_mass(alphabet: Sequence, symbol) -> "Pmf":
        alphabet = tuple(alphabet)
        probs = np.zeros(len(alphabet))
        probs[alphabet.index(symbol)] = 1.0
        return Pmf(alphabet, probs)


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

    @staticmethod
    def product(row: Pmf, col: Pmf) -> "JointPmf":
        return JointPmf(row.alphabet, col.alphabet, np.outer(row.probs, col.probs))


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

    def row_at(self, idx: int) -> Pmf:
        return Pmf(self.output_alphabet, self.rows[idx])

    @property
    def absolutely_continuous(self) -> bool:
        """True iff every pair of rows shares support (Assumption on row pairs)."""
        supports = self.rows > 0
        return bool(np.all(supports == supports[0]))

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


@dataclass(frozen=True)
class EmpiricalType:
    """Symbol counts of a length-n sequence."""

    alphabet: tuple
    counts: np.ndarray
    n: int = field(init=False)

    def __init__(self, alphabet: Sequence, counts) -> None:
        alphabet = tuple(alphabet)
        arr = np.asarray(counts, dtype=int)
        if arr.ndim != 1 or arr.size != len(alphabet):
            raise InputError("EmpiricalType: counts length must match alphabet")
        if np.any(arr < 0):
            raise InputError("EmpiricalType: negative counts")
        n = int(arr.sum())
        if n < 1:
            raise InputError("EmpiricalType: blocklength must be >= 1")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "counts", arr)
        object.__setattr__(self, "n", n)

    def pmf(self) -> Pmf:
        return Pmf(self.alphabet, self.counts / self.n)


def _check_same_alphabet(p: Pmf, q: Pmf) -> None:
    if p.alphabet != q.alphabet:
        raise InputError("PMFs are defined on different alphabets")


def kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """KL divergence D(p_k || q_k) in nats of every row of a 2-D stack p
    against q (one row, or one per row of p): the one kernel that sums a KL
    divergence.

    Each row sums only the terms on its support, and numpy's summation order
    depends on how many there are, so a row's value must not depend on the
    stack it is in. Rows are summed in groups of equal support size, each
    row's terms packed to the front in their order. A term p/0 is +inf,
    which makes a row off q's support +inf.

    Stacks whose rows all share one support (nine calls in ten on the shtcc
    benchmark) skip the packing: summing that support's columns gives the
    same bits at about a third of the per-call cost, and saves about a fifth
    of that benchmark's wall time.
    """
    p = np.ascontiguousarray(p, dtype=float)
    mask = p > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = p * np.log(p / q)
    if len(p) and (mask == mask[0]).all():
        return terms.compress(mask[0], axis=1).sum(axis=1)
    packed = np.take_along_axis(np.where(mask, terms, 0.0),
                                np.argsort(~mask, axis=1, kind="stable"), axis=1)
    counts = mask.sum(axis=1)
    out = np.empty(len(p))
    for k in set(counts.tolist()):
        rows = counts == k
        out[rows] = packed[rows, :k].sum(axis=1)
    return out


def kl_array(p: np.ndarray, q: np.ndarray) -> float:
    """KL divergence between raw probability arrays, in nats: the one-row
    `kl_rows`."""
    return float(kl_rows(np.reshape(p, (1, -1)),
                         np.asarray(q, dtype=float).reshape(-1))[0])


def kl_divergence(p: Pmf, q: Pmf) -> float:
    """D(p || q) in nats; +inf when p is not absolutely continuous w.r.t. q."""
    _check_same_alphabet(p, q)
    return kl_array(p.probs, q.probs)


def conditional_kl(p_given_x: Channel, q_given_x: Channel, px: Pmf) -> float:
    """Weighted per-row KL, sum_x px(x) D(p(.|x) || q(.|x)); +inf propagates."""
    if (p_given_x.input_alphabet != q_given_x.input_alphabet
            or p_given_x.output_alphabet != q_given_x.output_alphabet):
        raise InputError("channels are defined on different alphabets")
    if px.alphabet != p_given_x.input_alphabet:
        raise InputError("weight PMF alphabet does not match channel input alphabet")
    total = conditional_kl_arrays(px.probs, p_given_x.rows, q_given_x.rows)
    # +inf as a Python float, the type kl_divergence gives it
    return float("inf") if total == np.inf else total


def conditional_kl_arrays(w: np.ndarray, p: np.ndarray, q: np.ndarray):
    """sum_k w_k D(p_k || q_k) over the rows k of the 2-D stacks p and q with
    w_k != 0; +inf propagates.

    The terms are added one at a time from 0.0 in row order: numpy's own sum
    regroups them from 8 terms up, which would move the last digits. A zero
    weight skips its row, so it never multiplies a +inf divergence into NaN.
    """
    live = w != 0
    total = 0.0
    for term in w[live] * kl_rows(p[live], q[live]):
        total += term
    return total


def mutual_information(pxy: JointPmf) -> float:
    """I(X;Y) = D(P_XY || P_X P_Y) in nats."""
    return mutual_information_arrays(pxy.probs)


def mutual_information_arrays(joint: np.ndarray) -> float:
    """Mutual information of a raw joint matrix (no Pmf wrapping): the
    one-joint `mutual_information_rows`."""
    return float(mutual_information_rows(joint[None])[0])


def mutual_information_rows(joints: np.ndarray) -> np.ndarray:
    """I(X;Y) = D(P_XY || P_X P_Y) in nats of every joint in a
    (B, |X|, |Y|) stack."""
    joints = np.ascontiguousarray(joints, dtype=float)
    n, n_x, n_y = joints.shape
    px = joints.sum(axis=2)
    py = joints.sum(axis=1)
    return kl_rows(joints.reshape(n, n_x * n_y),
                   (px[:, :, None] * py[:, None, :]).reshape(n, n_x * n_y))


def capacity(ch: Channel, tol: float = 1e-9, max_iter: int = 100_000) -> float:
    """Channel capacity in nats via alternating maximization.

    Deterministic uniform initialization; iterates until the gap between the
    capacity upper and lower estimates drops below `tol`.
    """
    w = ch.rows
    m = w.shape[0]
    r = np.full(m, 1.0 / m)
    # precompute row entropies sum_y w log w (0 log 0 = 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        logw = np.where(w > 0, np.log(np.where(w > 0, w, 1.0)), 0.0)
    for _ in range(max_iter):
        qy = r @ w  # output distribution
        with np.errstate(divide="ignore"):
            logqy = np.where(qy > 0, np.log(np.where(qy > 0, qy, 1.0)), 0.0)
        # d_i = D(w_i || qy)
        d = np.sum(np.where(w > 0, w * (logw - logqy), 0.0), axis=1)
        upper = float(np.max(d))
        lower = float(np.sum(r * d))
        if upper - lower < tol:
            return max(lower, 0.0)
        r = r * np.exp(d - upper)
        r /= r.sum()
    return max(lower, 0.0)


def empirical_type(seq: Sequence, alphabet: Sequence) -> EmpiricalType:
    """Symbol counts of `seq` over `alphabet`; blocklength = len(seq) >= 1."""
    alphabet = tuple(alphabet)
    index = {sym: i for i, sym in enumerate(alphabet)}
    counts = np.zeros(len(alphabet), dtype=int)
    n = 0
    for sym in seq:
        if sym not in index:
            raise InputError(f"symbol {sym!r} not in alphabet")
        counts[index[sym]] += 1
        n += 1
    if n == 0:
        raise InputError("empirical type requires a non-empty sequence")
    return EmpiricalType(alphabet, counts)
