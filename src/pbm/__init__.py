"""Distributed mean estimation with per-coordinate binomial noise.

Clients encode bounded vectors as small binomial counts, a simulated
secure-aggregation layer sums them in a finite group, and the server
decodes an unbiased mean whose aggregate noise provides differential
privacy. Includes an exact Renyi accountant, parameter selection that
meets a budget on it, a Gaussian baseline, a benchmark harness, and a
federated SGD simulation.

The package re-exports nothing: import each name from its layer module,
e.g. ``from pbm.accounting import pbm_exact_curve``. The layers are
``accounting``, ``mechanism``, ``kashin``, ``secagg``, ``benchmark`` and
``sgd``; ``config`` and ``cli`` read configs and run the commands.
"""
