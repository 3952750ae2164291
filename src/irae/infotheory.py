"""Exact information-theoretic checks on finite discrete distributions.

The executable counterpart of the information-preservation claim: pushing a
distribution through a deterministic map keeps the mutual information equal
to the source entropy exactly when the map is one-to-one on the support,
and strictly loses information otherwise.  All quantities in bits.

A map is given by its output labels, one integer per input symbol.  Since
Z = f(X) is a function of X, H(Z|X) = 0 and I(X; Z) = H(Z), so every
quantity follows from the output counts P(z) = sum of P(x) over f(x) = z;
memory is linear in |X|, with no |X| x |Z| joint table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = ["entropy", "InformationReport", "information_preservation_check", "iter_all_maps"]

_SUM_TOL = 1e-12


def entropy(p):
    """Shannon entropy in bits, with 0*log 0 = 0 (and +0.0, not -0.0)."""
    p = np.asarray(p, dtype=np.float64)
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum() + 0.0)


@dataclass(frozen=True)
class InformationReport:
    """What a deterministic map does to the information in its input."""

    injective: bool  # one-to-one on the support of px
    entropy_x: float  # H(X), bits
    mutual_info: float  # I(X; f(X)), bits
    info_loss: float  # H(X) - I(X; f(X)), bits
    conditional_certain: bool  # P(x|z) = 1 for every reachable (x, z)


def information_preservation_check(px, labels):
    """Measure the information the map x -> labels[x] preserves or loses.

    The loss H(X) - I(X; f(X)) is nonnegative, and zero exactly when f is
    injective on the support; equivalently the posterior P(x|z) is 1 for
    every reachable pair exactly in the injective case.
    """
    px = np.asarray(px, dtype=np.float64)
    labels = np.asarray(labels)
    if px.ndim != 1:
        raise ValueError(f"px must be 1-d, got shape {px.shape}")
    # written so that NaN fails too
    if not (np.all(px >= 0) and abs(px.sum() - 1.0) <= _SUM_TOL):
        raise ValueError("px is not a probability distribution")
    if labels.shape != px.shape or not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(
            f"labels must be integers of shape {px.shape}, got {labels.dtype} {labels.shape}"
        )
    # compact labels 0..|Z|-1, so memory never depends on the label values
    _, inverse = np.unique(labels, return_inverse=True)
    pz = np.bincount(inverse, weights=px)
    support = px > 0
    z = inverse[support]
    h_x = entropy(px)
    mi = entropy(pz)
    return InformationReport(
        injective=bool(np.bincount(z).max() <= 1),
        entropy_x=h_x,
        mutual_info=mi,
        info_loss=h_x - mi,
        conditional_certain=bool(np.all(np.abs(px[support] / pz[z] - 1.0) <= _SUM_TOL)),
    )


def iter_all_maps(domain, codomain):
    """Every total map from `domain` symbols into `codomain`, as label tuples."""
    return itertools.product(range(codomain), repeat=domain)
