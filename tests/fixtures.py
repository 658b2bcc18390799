"""Shared run fixtures, cached because several test modules replay them."""

from functools import lru_cache

import numpy as np

from proxnet.graphs import complete_schedule, ring_matchings_schedule
from proxnet.objectives import quadratic_family
from proxnet.regularizers import L1
from proxnet.solver import RunSetup, run


@lru_cache(maxsize=1)
def matchings_run():
    """Ten quadratic agents on the alternating-matchings ring, T=200.

    Treat the returned trace as read-only; tests share one instance.
    """
    objectives = quadratic_family(m=10, n=5, seed=7)
    lipschitz = max(obj.lipschitz() for obj in objectives)
    setup = RunSetup(
        objectives=objectives,
        regularizer=L1(5, lam1=0.01),
        schedule=ring_matchings_schedule(10),
        alpha=0.9 / lipschitz,
        max_iter=200,
        init=np.zeros((10, 5)),
    )
    return setup, run(setup)


@lru_cache(maxsize=1)
def small_quadratic_run():
    """Four quadratic agents, complete graph, l1 regularizer, T=200."""
    objectives = quadratic_family(m=4, n=3, seed=11)
    lipschitz = max(obj.lipschitz() for obj in objectives)
    setup = RunSetup(
        objectives=objectives,
        regularizer=L1(3, lam1=0.05),
        schedule=complete_schedule(4),
        alpha=0.9 / lipschitz,
        max_iter=200,
        init=np.zeros((4, 3)),
    )
    return setup, run(setup)

