"""Exact information-theoretic checks on finite discrete distributions.

The executable counterpart of the information-preservation claim: pushing a
distribution through a deterministic map keeps the mutual information equal
to the source entropy exactly when the map is one-to-one on the support,
and strictly loses information otherwise.  All quantities in bits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DiscreteJoint",
    "FiniteMap",
    "entropy",
    "mutual_information",
    "push_forward",
    "InformationReport",
    "information_preservation_check",
    "iter_all_maps",
]

_SUM_TOL = 1e-12


class DiscreteJoint:
    """Finite joint probability table P(x, z) over |X| x |Z| outcomes."""

    def __init__(self, table):
        arr = np.asarray(table, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"joint table must be 2-D, got shape {arr.shape}")
        if np.any(arr < 0):
            raise ValueError("joint table has negative entries")
        if abs(arr.sum() - 1.0) > _SUM_TOL:
            raise ValueError(f"joint table sums to {arr.sum()!r}, not 1")
        self.table = arr

    def marginal_x(self):
        return self.table.sum(axis=1)

    def marginal_z(self):
        return self.table.sum(axis=0)


def entropy(p):
    """Shannon entropy in bits, with 0*log 0 = 0."""
    p = np.asarray(p, dtype=np.float64)
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def mutual_information(joint):
    """Sum of P(x,z) * log2(P(x,z) / (P(x) P(z))) over the support."""
    p = joint.table
    px = joint.marginal_x()
    pz = joint.marginal_z()
    xs, zs = np.nonzero(p)
    vals = p[xs, zs]
    return float((vals * np.log2(vals / (px[xs] * pz[zs]))).sum())


@dataclass(frozen=True)
class FiniteMap:
    """Total map f: {0..n-1} -> {0..codomain-1} as an explicit table."""

    mapping: tuple
    codomain: int = 0

    def __post_init__(self):
        mapping = tuple(int(v) for v in self.mapping)
        object.__setattr__(self, "mapping", mapping)
        cod = self.codomain if self.codomain else (max(mapping) + 1 if mapping else 0)
        if any(not 0 <= v < cod for v in mapping):
            raise ValueError(f"mapping values must lie in [0, {cod})")
        object.__setattr__(self, "codomain", cod)

    @property
    def domain(self):
        return len(self.mapping)

    def injective_on(self, support):
        seen = set()
        for x in support:
            z = self.mapping[x]
            if z in seen:
                return False
            seen.add(z)
        return True

    def __call__(self, x):
        return self.mapping[x]


def push_forward(px, f):
    """Joint of (X, f(X)): P(x, z) = px(x) * [f(x) = z]."""
    px = np.asarray(px, dtype=np.float64)
    if px.ndim != 1 or len(px) != f.domain:
        raise ValueError(f"px of shape {px.shape} does not match map domain {f.domain}")
    if np.any(px < 0) or abs(px.sum() - 1.0) > _SUM_TOL:
        raise ValueError("px is not a probability distribution")
    table = np.zeros((f.domain, f.codomain), dtype=np.float64)
    for x, p in enumerate(px):
        table[x, f(x)] = p
    return DiscreteJoint(table)


@dataclass(frozen=True)
class InformationReport:
    """What a deterministic map does to the information in its input."""

    injective: bool  # one-to-one on the support of px
    entropy_x: float  # H(X), bits
    mutual_info: float  # I(X; f(X)), bits
    info_loss: float  # H(X) - I(X; f(X)), bits
    conditional_certain: bool  # P(x|z) = 1 for every reachable (x, z)


def information_preservation_check(px, f):
    """Measure the information a deterministic map preserves or loses.

    The loss H(X) - I(X; f(X)) is nonnegative, and zero exactly when f is
    injective on the support; equivalently the posterior P(x|z) is 1 for
    every reachable pair exactly in the injective case.
    """
    px = np.asarray(px, dtype=np.float64)
    joint = push_forward(px, f)
    h_x = entropy(px)
    mi = mutual_information(joint)
    support = [i for i, p in enumerate(px) if p > 0]
    pz = joint.marginal_z()
    xs, zs = np.nonzero(joint.table)
    conditionals = joint.table[xs, zs] / pz[zs]
    certain = bool(np.all(np.abs(conditionals - 1.0) <= _SUM_TOL))
    return InformationReport(
        injective=f.injective_on(support),
        entropy_x=h_x,
        mutual_info=mi,
        info_loss=h_x - mi,
        conditional_certain=certain,
    )


def iter_all_maps(domain, codomain):
    """Every total map from a domain of size `domain` into `codomain` symbols."""
    for values in itertools.product(range(codomain), repeat=domain):
        yield FiniteMap(values, codomain)
