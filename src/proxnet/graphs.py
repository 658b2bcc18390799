"""Time-varying communication graphs and multi-round mixing weights.

A schedule assigns one symmetric doubly stochastic weight matrix to every
communication slot t = 0, 1, 2, ...; ``Schedule.matrix(t)`` hands it out
as a read-only float array.  Iteration k of the solver consumes k
consecutive slots starting at ``slots_before(k) = k(k-1)/2``, so after T
iterations exactly T(T+1)/2 slots have been used.  The effective mixing
weights of iteration k are the ordered product of its k slot matrices,
computed by :func:`consensus_weights` one ``Schedule.mix`` at a time.

On a schedule of period p that product depends only on the phase
``slots_before(k) % p`` and on k, so the schedule keeps one prefix
product per phase, at most p matrices, and each iteration extends its
phase's product by the slots it adds.  T iterations then read at most
p*T slots (2T - 1 on the period-2 matchings) instead of T(T+1)/2.  The
extension multiplies the same matrices in the same order as a product
built from scratch, so traces stay bit for bit the same.  A power of the
period product would be cheaper still but rounds differently, and near
consensus the residual bound's eps term is rounding noise, so that
rounding moves the bound past the reference traces' tolerance.

A periodic slot that averages disjoint pairs (every matchings slot) is
applied by :meth:`PeriodicSchedule.mix` as O(m) pair averages with the
dense product's bits; every other slot, a random one too, is mixed densely.

Every generated slot, complete, ring, matchings or random, is a boolean
adjacency mask that one numpy builder turns into Metropolis weights.  A
:class:`PeriodicSchedule` checks its matrices once, when it is built.  A
:class:`RandomSchedule` draws a slot only when it is read and keeps the
last one; its Metropolis slots are valid by construction, which the tests
check instead.

The convergence analysis assumes that every B consecutive slots connect
all agents and that every self-weight w_ii and every other positive
weight is at least a floor eta.  :func:`validate_schedule` checks the
first over one period of a periodic schedule's windows; a random schedule
is connected by construction (see RandomSchedule).  The weight check
requires every w_ii > 0 and eta is derived from the matrices, so the
floor holds by construction (see validate_schedule).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

# Rounding allowed in slot weights, such as a file's printed digits.
WEIGHT_TOL = 1e-9


def slots_before(k: int) -> int:
    """Communication slots consumed before iteration k (k >= 1)."""
    if k < 1:
        raise ValueError(f"iteration index must be >= 1, got {k}")
    return k * (k - 1) // 2


def _check_weights(w: np.ndarray) -> None:
    """Raise ValueError unless w is symmetric, doubly stochastic and gives
    every agent a positive self-weight, as the envelope's constants assume
    (Nedic & Ozdaglar 2009): a swap of agents never reaches consensus."""
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"weight matrix must be square, got shape {w.shape}")
    if w.shape[0] < 1:
        raise ValueError("weight matrix needs at least one agent")
    if not np.all(np.isfinite(w)):
        raise ValueError("weight matrix has non-finite entries")
    if np.min(w) < -WEIGHT_TOL:
        raise ValueError("weight matrix has negative entries")
    if np.max(np.abs(w - w.T)) > WEIGHT_TOL:
        raise ValueError("weight matrix is not symmetric")
    ones = np.ones(w.shape[0])
    row_err = float(np.max(np.abs(w @ ones - ones)))
    col_err = float(np.max(np.abs(w.T @ ones - ones)))
    if max(row_err, col_err) > WEIGHT_TOL:
        raise ValueError(
            f"weight matrix is not doubly stochastic (row error {row_err:.3e}, "
            f"column error {col_err:.3e})"
        )
    unweighted = np.flatnonzero(~(np.diag(w) > 0))
    if unweighted.size:
        i = unweighted[0]
        raise ValueError(
            f"weight matrix gives agent {i} the self-weight {float(w[i, i])!r}; "
            "every self-weight must be positive"
        )


def _partner(w: np.ndarray) -> np.ndarray | None:
    """Each agent's matched partner (itself when unmatched), or None.

    Set only when every row of w is exactly e_i or (e_i + e_j) / 2 for a
    partner j whose row is (e_j + e_i) / 2, that is, when the slot
    averages disjoint pairs.
    """
    # A matching has at most 2m nonzeros; this cheap count turns away most
    # dense slots.
    if np.count_nonzero(w) > 2 * w.shape[0]:
        return None
    idx = np.arange(w.shape[0])
    off = w != 0
    off[idx, idx] = False
    partner = np.where(off.any(axis=1), off.argmax(axis=1), idx)
    matching = np.zeros_like(w)
    matching[idx, idx] = 0.5
    matching[idx, partner] += 0.5
    return partner if np.array_equal(w, matching) else None


def _metropolis(adj: np.ndarray) -> np.ndarray:
    """Metropolis weights, read-only, of the off-diagonal edges in adj or adj.T."""
    adj = adj | adj.T
    np.fill_diagonal(adj, False)
    degree = adj.sum(axis=1)
    w = np.where(adj, 1.0 / (1.0 + np.maximum.outer(degree, degree)), 0.0)
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    w.flags.writeable = False
    return w


def _ring_mask(m: int, starts: np.ndarray) -> np.ndarray:
    """Adjacency mask of the ring edges {i, (i + 1) % m} for i in starts."""
    adj = np.zeros((m, m), dtype=bool)
    adj[starts, (starts + 1) % m] = True
    return adj


class Schedule:
    """Base class mapping slot indices to read-only weight arrays.

    Subclasses implement :meth:`matrix`.  A schedule whose slots repeat
    sets ``period``; validation then reads one period of windows, and
    consensus_weights keeps one prefix product per phase.
    """

    period: int | None = None

    def __init__(self, m: int, eta: float, B: int) -> None:
        if m < 1:
            raise ValueError(f"need at least one agent, got m={m}")
        if B < 1:
            raise ValueError(f"connectivity window must be >= 1, got B={B}")
        self.m = m
        self.eta = eta
        self.B = B
        # phase -> (length, product of that many slots from the phase on),
        # written by consensus_weights when period is set.
        self._prefixes: dict[int, tuple[int, np.ndarray]] = {}

    def matrix(self, t: int) -> np.ndarray:
        raise NotImplementedError

    def mix(self, t: int, p: np.ndarray) -> np.ndarray:
        """matrix(t) @ p, as a new array."""
        return self.matrix(t) @ p


class PeriodicSchedule(Schedule):
    """Cycles through a fixed list of weight matrices; one matrix is static.

    Construction copies each matrix, in list order, checks it to be
    symmetric and doubly stochastic within WEIGHT_TOL, whoever built it (a
    generator, a matrix file or a caller), freezes the copy so that the
    check keeps holding, and records whether it averages disjoint pairs.
    """

    def __init__(self, matrices, B: int) -> None:
        matrices = [np.array(w, dtype=float) for w in matrices]
        if not matrices:
            raise ValueError("periodic schedule needs at least one matrix")
        for w in matrices:
            _check_weights(w)
            w.flags.writeable = False
        sizes = {w.shape[0] for w in matrices}
        if len(sizes) != 1:
            raise ValueError(f"matrices disagree on agent count: {sorted(sizes)}")
        # The realized weight floor: the smallest positive entry.
        eta = min(float(w[w > 0].min()) for w in matrices)
        super().__init__(matrices[0].shape[0], eta, B)
        self._matrices = matrices
        self._partners = [_partner(w) for w in matrices]
        self.period = len(matrices)

    def matrix(self, t: int) -> np.ndarray:
        if t < 0:
            raise ValueError(f"slot index must be >= 0, got {t}")
        return self._matrices[t % self.period]

    def mix(self, t: int, p: np.ndarray) -> np.ndarray:
        """matrix(t) @ p, bit for bit, as a new array.

        A matching slot is applied as the pair averages (p + p[partner]) / 2,
        O(m) rows of work instead of a dense product; every other slot is
        the dense product.  The two agree bit for bit while no half of an
        entry of p is subnormal, no pair sum overflows and no entry is -0
        (the dense sum turns it into +0): halving is then exact, and the
        dense sum adds exact zeros to the exact halves, so each entry
        rounds once, to fl(a/2 + b/2) = fl(a + b) / 2.  A product of up to
        1021 slots with weights 1/2 has entries that are +0 or in
        [2**-1021, 1], which meets the condition.
        """
        w = self.matrix(t)
        partner = self._partners[t % self.period]
        if partner is None:
            return w @ p
        out = p[partner]
        out += p
        out *= 0.5
        return out


class RandomSchedule(Schedule):
    """Seeded random schedule that is connected over every window of B slots.

    Slot t holds a random spanning tree when t is a multiple of B; the other
    slots keep each possible edge independently with probability 1/4.
    Every run of B consecutive slots, aligned to a multiple of B or not,
    contains exactly one tree slot, and each tree spans all agents by
    construction: every node of a random order attaches to one placed
    before it.  Identical seeds reproduce identical matrices at every slot.

    Window w's slots are drawn in order from default_rng([seed, w]).  Only
    the slot read last is kept, with its window's generator: a later slot
    of the same window is drawn forward from it, and any other slot from
    its window's start.  The constructor draws slot 0.  Slots skip
    PeriodicSchedule's weight check: their Metropolis weights meet it by
    construction, and the tests check drawn slots instead.
    """

    def __init__(self, m: int, B: int, seed: int) -> None:
        # Metropolis weights never fall below 1 / (1 + max degree) >= 1/m.
        super().__init__(m, 1.0 / m, B)
        self.seed = seed
        self._rng = np.random.default_rng([seed, 0])
        self._t, self._w = 0, _metropolis(self._draw(0))

    def _draw(self, t: int) -> np.ndarray:
        """Adjacency mask of slot t, drawn next from the window's generator."""
        # Allocated before any draw, so a size too large fails at once.
        adj = np.zeros((self.m, self.m), dtype=bool)
        if t % self.B == 0 and self.m > 1:
            order = self._rng.permutation(self.m)
            parents = self._rng.integers(np.arange(1, self.m))
            adj[order[1:], order[parents]] = True
            return adj
        np.less(self._rng.random((self.m, self.m)), 0.25, out=adj)
        return np.triu(adj, k=1)

    def matrix(self, t: int) -> np.ndarray:
        if t < 0:
            raise ValueError(f"slot index must be >= 0, got {t}")
        if t != self._t:
            window = t // self.B
            if t < self._t or window != self._t // self.B:
                self._rng = np.random.default_rng([self.seed, window])
                self._t = window * self.B - 1
            for s in range(self._t + 1, t + 1):
                adj = self._draw(s)
            self._t, self._w = t, _metropolis(adj)
        return self._w


def complete_schedule(m: int, B: int = 1) -> PeriodicSchedule:
    """All-to-all graph at every slot (Metropolis weights are uniform 1/m)."""
    return PeriodicSchedule([_metropolis(np.ones((m, m), dtype=bool))], B=B)


def ring_schedule(m: int, B: int = 1) -> PeriodicSchedule:
    """Ring graph at every slot."""
    return PeriodicSchedule([_metropolis(_ring_mask(m, np.arange(m)))], B=B)


def ring_matchings_schedule(m: int) -> PeriodicSchedule:
    """Alternate the even and odd matchings of a ring; period 2, B = 2.

    No slot graph is connected on its own, but the union of any two
    consecutive slots covers the whole ring (a path when m is odd), so the
    schedule satisfies the B = 2 window-connectivity requirement.
    """
    if m < 2:
        raise ValueError(f"matchings need at least two agents, got m={m}")
    even = _ring_mask(m, np.arange(0, m - 1, 2))
    odd = _ring_mask(m, np.arange(1, m, 2))
    return PeriodicSchedule([_metropolis(even), _metropolis(odd)], B=2)


def read_matrix_file(path) -> list[np.ndarray]:
    """Read a list of square matrices from a text file.

    Matrices are blocks of whitespace-separated rows, one row per line,
    separated by blank lines.
    """
    blocks: list[list[list[float]]] = [[]]
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line:
                if blocks[-1]:
                    blocks.append([])
                continue
            blocks[-1].append([float(tok) for tok in line.split()])
    if not blocks[-1]:
        blocks.pop()
    if not blocks:
        raise ValueError(f"no matrices found in {path}")
    return [np.array(block, dtype=float) for block in blocks]


def consensus_weights(schedule: Schedule, k: int) -> np.ndarray:
    """Effective mixing matrix of iteration k, as a read-only array.

    Iteration k consumes slots slots_before(k) .. slots_before(k) + k - 1
    and mixes with the ordered product A(t) ... A(s) of those k matrices:
    later slots multiply on the left.  A product of doubly stochastic
    matrices is doubly stochastic.

    A periodic schedule keeps the product of each phase, slots_before(k) %
    period, so at most period matrices.  A call extends its phase's
    product from the stored length to k, or rebuilds it from the phase's
    first slot when k is shorter; a schedule without a period builds the
    product from scratch.  Either way each slot is applied in slot order
    by schedule.mix(t, product), which gives the dense product's bits, so
    the result, and every trace, is the same bit for bit whatever was
    asked before.  The module docstring says why a matrix power is not
    used.  The product is returned read-only, as it is stored: k = 1
    returns the slot's own array, and a later call replaces a stored
    product with a new array, never writing to one it has handed out.
    """
    start = slots_before(k)
    phase = None if schedule.period is None else start % schedule.period
    length, product = schedule._prefixes.get(phase, (0, None))
    if product is None or length > k:
        length, product = 1, schedule.matrix(start)
    for t in range(start + length, start + k):
        product = schedule.mix(t, product)
    product.flags.writeable = False
    if phase is not None:
        schedule._prefixes[phase] = (k, product)
    return product


class DisconnectedSchedule(ValueError):
    """Some window of B consecutive slots does not connect every agent."""


def _connected(union: np.ndarray) -> bool:
    seen = np.zeros(union.shape[0], dtype=bool)
    seen[0] = True
    stack = [0]
    while stack:
        node = stack.pop()
        for nxt in np.nonzero(union[node])[0]:
            if not seen[nxt]:
                seen[nxt] = True
                stack.append(int(nxt))
    return bool(seen.all())


def validate_schedule(schedule: Schedule) -> None:
    """Check that every window of B consecutive slots connects all agents.

    A periodic schedule repeats its windows, so the window starting at
    each slot of one period is examined.  A window of B >= period slots
    holds every slot of the period, so its first min(B, period) slots
    connect what it connects.  At most 2 period - 1 slots are read,
    whatever B.  Raises DisconnectedSchedule at the first window that
    fails, even one that a short run never reads: the analysis assumes
    every window of the schedule connects.  A schedule without a period,
    a random one, is not read: it is connected by construction (see
    RandomSchedule).

    Nothing else needs a check here.  A periodic schedule checked its
    read-only matrices' weights when it was built, and a random schedule's
    Metropolis weights are valid by construction.  The weight floor eta is
    derived: the smallest positive entry of a periodic schedule's matrices,
    and 1/m for the Metropolis slots of a random schedule.
    """
    B = schedule.B
    if schedule.period is None:
        return
    width = min(B, schedule.period)
    window: deque[np.ndarray] = deque(maxlen=width)
    for t in range(schedule.period + width - 1):
        window.append(schedule.matrix(t) > 0)
        if len(window) == width and not _connected(np.logical_or.reduce(window)):
            raise DisconnectedSchedule(
                f"disconnected schedule window: the B={B} slots starting at "
                f"slot {t - width + 1} do not connect all {schedule.m} agents"
            )


@dataclass(frozen=True)
class GeometricConstants:
    """Constants governing the geometric decay of consensus error."""

    Gamma: float
    gamma: float
    B0: int


def geometric_constants(m: int, B: int, eta: float) -> GeometricConstants:
    """Decay constants for an m-agent schedule with window B and floor eta.

    B0 = (m-1) B, gamma = (1 - eta^B0)^(1/B0) and
    Gamma = 2 (1 + eta^(-B0)) / (1 - eta^B0).  A single agent has nothing
    to agree on, so m = 1 is rejected.
    """
    if m < 2:
        raise ValueError(f"consensus decay needs at least two agents, got m={m}")
    if B < 1:
        raise ValueError(f"connectivity window must be >= 1, got B={B}")
    if not 0.0 < eta < 1.0:
        raise ValueError(f"weight floor must lie in (0, 1), got {eta}")
    B0 = (m - 1) * B
    eta_pow = eta**B0
    gamma = (1.0 - eta_pow) ** (1.0 / B0)
    try:
        Gamma = 2.0 * (1.0 + eta**(-B0)) / (1.0 - eta_pow)
    except OverflowError:
        # eta^(-B0) exceeds the float range, so the envelope is vacuous.
        Gamma = math.inf
    return GeometricConstants(Gamma=Gamma, gamma=gamma, B0=B0)
