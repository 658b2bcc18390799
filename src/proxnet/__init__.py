"""Distributed proximal gradient optimization over time-varying networks.

Agents hold private smooth losses and share one non-smooth regularizer.
Each iteration takes a local gradient step, mixes the results over a
growing number of gossip slots, and applies the proximal operator of the
regularizer.  Submodules: graphs (schedules and mixing weights),
regularizers (proximal operators), objectives (the local losses), data
(LIBSVM ingestion, shards and synthetic data), solver (the iteration),
gossip (message-level replay), diagnostics (convergence certificates) and
cli (command line front end).
"""

__version__ = "0.1.0"
