"""Sparse-precision Gaussian and GMRF mixture estimation toolkit.

The top level exports the graphical lasso and its debiased refit
(`GlassoConfig`, `glasso_solve`, `refit`, `debias`); every other name is
imported from its module (`gmrfmix.mle`, `gmrfmix.mixture`, ...).
"""

__version__ = "0.1.0"

from .glasso import GlassoConfig, debias, glasso_solve, refit
