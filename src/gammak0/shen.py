"""Factoring a positive map through its source or its target with the same kernel.

Given a positive map g1 out of a simplicial group over a normal stabilizer,
into a simplicial group over the same coset space, the factorization
g1 = g2 * g12 with ker g12 = ker g1 (after Effros-Handelman-Shen) needs no
new module.  Every positive element of a simplicial group is a nonnegative
combination of its basis, so the target with its basis is a decomposition
witness for every kernel element, and pushing kernel generators through such
witnesses never leaves the target.  Hence (g12, g2) = (g1, id_target) when
ker g1 is non-zero, and (id_source, g1) when g1 is injective, since then
nothing has to die.  Both legs are positive because g1 is.  The branch is
picked by injectivity, which is full column rank over Q: a target of smaller
flat dimension than the source settles it (rank <= rows), and otherwise one
fraction-free rank of the flat matrix does.  ker g12 = ker g1 then holds by
construction, since g12 is g1 itself or the identity on the source
of an injective g1, and g2 * g12 = g1 holds because the other leg is an
identity map.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DeltaNotNormal, NotPositiveMap, TargetLacksSdp
from .gamma_maps import GammaLinearMap, identity_map, is_positive_map, map_matrix
from .intlinalg import rank
from .ordered_simplicial import SimplicialGroup


@dataclass(frozen=True)
class ShenFactorization:
    middle: SimplicialGroup
    g12: GammaLinearMap
    g2: GammaLinearMap


def shen_step(g1: GammaLinearMap) -> ShenFactorization:
    """Factor g1 = g2 * g12 with ker g12 = ker g1, both legs positive."""
    src = g1.source
    tgt = g1.target
    if not isinstance(tgt, SimplicialGroup) or tgt.space != src.space:
        raise TargetLacksSdp(
            "target must be a simplicial group over the same coset space"
        )
    if not src.space.is_normal:
        raise DeltaNotNormal("the basis stabilizer must be normal")
    if not is_positive_map(g1):
        raise NotPositiveMap("g1 must be a positive map")

    n = src.flat_dim()
    if tgt.flat_dim() >= n and rank(map_matrix(g1), n) == n:
        g12, g2 = identity_map(src), g1
    else:
        g12, g2 = g1, identity_map(tgt)
    return ShenFactorization(middle=g12.target, g12=g12, g2=g2)
