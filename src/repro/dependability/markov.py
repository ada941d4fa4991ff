"""Continuous-time Markov chains for component and group availability.

Formula (1) and the renewal simulation treat each component as a two-state
process; the Markov view makes that model explicit and extends it to
repair-limited redundancy groups, the regime where the simple
``1-(1-A)^(k+1)`` independence formula of
:func:`repro.dependability.availability.with_redundancy` stops being
exact.  Performability [6] is a Markov-reward measure; :func:`markov_reward`
computes it directly on a chain's steady state.

Provided:

* :class:`CTMC` — generator-matrix chain with steady-state solution
  (linear solve), transient distribution (matrix exponential) and mean
  time to absorption;
* :func:`component_ctmc` — the 2-state up/down component; its steady
  state reproduces the exact availability ``MTBF/(MTBF+MTTR)``;
* :func:`redundancy_group_ctmc` — birth–death chain of an n-unit group
  with *r* repair crews; with ``r = n`` it matches the independence
  formula, with ``r < n`` it quantifies the repair-contention penalty;
* :func:`markov_reward` — steady-state expected reward.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError

__all__ = [
    "CTMC",
    "component_ctmc",
    "redundancy_group_ctmc",
    "markov_reward",
]


class CTMC:
    """A finite continuous-time Markov chain.

    Parameters
    ----------
    states:
        State labels, in generator-row order.
    generator:
        The (n, n) generator matrix Q: off-diagonal rates >= 0, rows sum
        to zero (the diagonal is recomputed from the off-diagonals to
        absorb rounding).
    """

    def __init__(self, states: Sequence[Hashable], generator: np.ndarray):
        self.states: List[Hashable] = list(states)
        if len(set(self.states)) != len(self.states):
            raise AnalysisError("duplicate CTMC state labels")
        q = np.array(generator, dtype=np.float64)
        n = len(self.states)
        if q.shape != (n, n):
            raise AnalysisError(
                f"generator shape {q.shape} does not match {n} states"
            )
        off_diagonal = q.copy()
        np.fill_diagonal(off_diagonal, 0.0)
        if np.any(off_diagonal < 0):
            raise AnalysisError("off-diagonal generator rates must be >= 0")
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1))
        self.generator = q
        self._index: Dict[Hashable, int] = {s: i for i, s in enumerate(self.states)}

    def index(self, state: Hashable) -> int:
        try:
            return self._index[state]
        except KeyError:
            raise AnalysisError(f"unknown CTMC state {state!r}") from None

    # -- steady state -------------------------------------------------------

    def steady_state(self) -> np.ndarray:
        """The stationary distribution π with πQ = 0, Σπ = 1.

        Solved as a least-squares system with the normalization row
        appended; requires an irreducible chain (checked by verifying the
        solution is a proper distribution).
        """
        n = len(self.states)
        a = np.vstack([self.generator.T, np.ones((1, n))])
        b = np.zeros(n + 1)
        b[-1] = 1.0
        pi, *_ = np.linalg.lstsq(a, b, rcond=None)
        if np.any(pi < -1e-9) or abs(pi.sum() - 1.0) > 1e-6:
            raise AnalysisError(
                "no valid stationary distribution (chain reducible?)"
            )
        return np.clip(pi, 0.0, None) / np.clip(pi, 0.0, None).sum()

    def steady_state_probability(self, states: Sequence[Hashable]) -> float:
        """Total stationary probability of the given states."""
        pi = self.steady_state()
        return float(sum(pi[self.index(s)] for s in states))

    # -- transient ------------------------------------------------------------

    def transient(self, initial: Hashable, t: float) -> np.ndarray:
        """State distribution at time *t* starting from *initial*."""
        from scipy.linalg import expm

        if t < 0:
            raise AnalysisError(f"time must be >= 0, got {t}")
        p0 = np.zeros(len(self.states))
        p0[self.index(initial)] = 1.0
        return p0 @ expm(self.generator * t)

    # -- absorption -------------------------------------------------------------

    def mean_time_to_absorption(
        self, initial: Hashable, absorbing: Sequence[Hashable]
    ) -> float:
        """Expected time from *initial* until any state in *absorbing*.

        Computed from the fundamental matrix of the chain restricted to
        transient states: solve ``Q_TT · m = -1``.
        """
        absorbing_idx = {self.index(s) for s in absorbing}
        if self.index(initial) in absorbing_idx:
            return 0.0
        transient_idx = [
            i for i in range(len(self.states)) if i not in absorbing_idx
        ]
        q_tt = self.generator[np.ix_(transient_idx, transient_idx)]
        try:
            m = np.linalg.solve(q_tt, -np.ones(len(transient_idx)))
        except np.linalg.LinAlgError as exc:
            raise AnalysisError(
                f"absorption times undefined (states unreachable?): {exc}"
            ) from exc
        position = transient_idx.index(self.index(initial))
        return float(m[position])


def component_ctmc(mtbf: float, mttr: float) -> CTMC:
    """The two-state (up/down) component chain.

    Failure rate 1/MTBF, repair rate 1/MTTR.  Its stationary probability
    of ``"up"`` is the exact availability ``MTBF/(MTBF+MTTR)``.
    """
    if mtbf <= 0 or mttr <= 0:
        raise AnalysisError("component_ctmc requires MTBF > 0 and MTTR > 0")
    failure = 1.0 / mtbf
    repair = 1.0 / mttr
    generator = np.array([[-failure, failure], [repair, -repair]])
    return CTMC(["up", "down"], generator)


def redundancy_group_ctmc(
    n: int, mtbf: float, mttr: float, *, repair_crews: int = 1
) -> CTMC:
    """Birth–death chain of an *n*-unit redundancy group.

    State *k* = number of failed units.  Failure rate from state k is
    ``(n-k)/MTBF`` (remaining units fail independently); repair rate is
    ``min(k, repair_crews)/MTTR``.  The group is available while k < n.

    With ``repair_crews >= n`` repairs never queue and the stationary
    unavailability equals the independence formula ``(U_comp)^n``; with
    fewer crews, repair contention lowers availability — the effect the
    ``redundantComponents`` attribute silently ignores.
    """
    if n < 1:
        raise AnalysisError("redundancy group needs n >= 1 units")
    if repair_crews < 1:
        raise AnalysisError("redundancy group needs at least one repair crew")
    if mtbf <= 0 or mttr <= 0:
        raise AnalysisError("redundancy_group_ctmc requires MTBF, MTTR > 0")
    failure = 1.0 / mtbf
    repair = 1.0 / mttr
    size = n + 1
    generator = np.zeros((size, size))
    for k in range(size):
        if k < n:
            generator[k, k + 1] = (n - k) * failure
        if k > 0:
            generator[k, k - 1] = min(k, repair_crews) * repair
    return CTMC(list(range(size)), generator)


def markov_reward(ctmc: CTMC, rewards: Dict[Hashable, float]) -> float:
    """Steady-state expected reward ``Σ_s π_s · r_s`` (performability)."""
    missing = [s for s in ctmc.states if s not in rewards]
    if missing:
        raise AnalysisError(f"no reward for states {missing}")
    pi = ctmc.steady_state()
    return float(sum(pi[ctmc.index(s)] * rewards[s] for s in ctmc.states))
