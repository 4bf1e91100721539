"""Linear-model transversality certificates and the fixed-point detector.

A linear chart is an equivariant map alpha between two explicit
representations (the tangent model and the obstruction model).  The
consistency condition asks that alpha be surjective on every isotypic
block of a nontrivial irrep; equivariance forces all cross-isotype blocks
to vanish, which is also checked.  The detector certifies a nonzero class
in negative degree whenever the invariant subspace of a representation
vanishes.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence, Union

from .errors import InternalCheckError, ValidationError
from .groups import FiniteGroup, generating_set
from .realreps import (
    MatrixRep,
    _genuine,
    character_multiplicities,
    isotypic_decomposition,
    projector_weights,
    real_irreps,
)


def fixed_subspace(G: FiniteGroup, V: MatrixRep) -> tuple[int, list]:
    """(dimension, basis) of the invariant subspace, via averaging.

    The basis is the pivot columns of the averaging projector.  Its rank
    must agree with the character inner product <chi_V, 1>, the
    multiplicity of the trivial irrep; disagreement is a hard failure, not
    a tolerance issue.
    """
    from fractions import Fraction

    la, n, d = V.la, G.order, V.dimension
    P = la.zeros(d, d)
    for m in V.matrices:
        P = la.add(P, m)
    basis = la.column_basis(la.scale(P, Fraction(1, n)))
    R = real_irreps(G)
    [expected] = character_multiplicities(V, [R.entries[R.trivial_index]])
    if len(basis) != expected:
        raise InternalCheckError(
            f"fixed-space rank {len(basis)} disagrees with <chi, 1> = {expected}"
        )
    return len(basis), basis


class LinearChart:
    """Equivariant linear data (V, E, alpha) with alpha: V -> E, |E| x |V|."""

    def __init__(self, group: FiniteGroup, V: MatrixRep, E: MatrixRep, alpha):
        from ._linalg import EXACT, Fixed

        if V.group is not group or E.group is not group:
            raise ValidationError("chart pieces must share one group")
        self.group, self.V, self.E = group, V, E
        self.tolerance = max(V.tolerance, E.tolerance)
        self.la = EXACT if V.exact and E.exact else Fixed(self.tolerance)
        if len(alpha) != E.dimension or any(len(r) != V.dimension for r in alpha):
            raise ValidationError("alpha has the wrong shape")
        self.alpha = self.la.matrix(alpha)
        self._check_equivariance()

    def __eq__(self, other):
        return type(other) is LinearChart and (self.group, self.V, self.E, self.alpha) == (
            other.group, other.V, other.E, other.alpha)

    def __repr__(self) -> str:
        return f"LinearChart(group={self.group!r}, V={self.V!r}, E={self.E!r}, alpha={self.alpha!r})"

    def _check_equivariance(self):
        la, alpha = self.la, self.alpha
        for g in generating_set(self.group):
            lhs = la.mul(alpha, la.matrix(self.V.matrices[g]))
            rhs = la.mul(la.matrix(self.E.matrices[g]), alpha)
            if not la.close(lhs, rhs):
                raise ValidationError("alpha is not equivariant")


class IsotypicBlockReport(NamedTuple):
    irrep_index: int
    dim_v: int
    dim_e: int
    rank: int
    surjective: bool


class SurjectivityReport(NamedTuple):
    consistent: bool  # all nontrivial blocks surjective
    blocks: list[IsotypicBlockReport]
    trivial_index: int


def isotypic_surjectivity(chart: LinearChart) -> SurjectivityReport:
    """Per-irrep surjectivity of alpha on isotypic pieces.

    The verdict requires every block of a nontrivial irrep to be onto;
    the trivial block is reported but not required.
    """
    G = chart.group
    R = real_irreps(G)
    pieces_v = isotypic_decomposition(chart.V)
    pieces_e = isotypic_decomposition(chart.E)
    from ._linalg import Fixed

    # The projectors are exact only when the group's coefficients are rational.
    la = chart.la if projector_weights(G)[1] else Fixed(chart.tolerance)
    alpha = la.matrix(chart.alpha)
    Pv = [la.matrix(p.projector) for p in pieces_v]
    Pe = [la.matrix(p.projector) for p in pieces_e]
    blocks = []
    for i, entry in enumerate(R.entries):
        for j in range(len(R.entries)):
            block = la.mul(Pe[j], la.mul(alpha, Pv[i]))
            if i == j:
                rank = la.rank(block, Pe[j], alpha, Pv[i])
                dim_e = pieces_e[i].multiplicity * entry.real_dim
                blocks.append(IsotypicBlockReport(
                    irrep_index=entry.index,
                    dim_v=pieces_v[i].multiplicity * entry.real_dim,
                    dim_e=dim_e,
                    rank=rank,
                    surjective=rank == dim_e,
                ))
            # Schur: cross-isotype blocks of an equivariant map vanish.
            elif not la.is_zero(block, Pe[j], alpha, Pv[i]):
                raise InternalCheckError(
                    "equivariant map has a nonzero cross-isotype block"
                )
    consistent = all(b.surjective for b in blocks if b.irrep_index != R.trivial_index)
    return SurjectivityReport(
        consistent=consistent, blocks=blocks, trivial_index=R.trivial_index
    )


class DetectorVerdict(NamedTuple):
    status: str  # "nonzero_certified" | "inconclusive"
    degree: int
    fixed_dim: int

    @property
    def certified(self) -> bool:
        return self.status == "nonzero_certified"


def derived_class_detector(G: FiniteGroup, V: Union[MatrixRep, Sequence]) -> DetectorVerdict:
    """Certify a nonzero class in degree -dim V when V has no invariants.

    Passing the fixed-point functor sends the obstruction datum of V to a
    point datum that survives exactly when the invariant part vanishes.
    When invariants remain, the detector reports inconclusive rather than
    asserting the class dies.
    """
    if isinstance(V, MatrixRep):
        dim = V.dimension
        fixed, _ = fixed_subspace(G, V)
    else:
        # <chi, 1> is the inner product with the trivial real irrep's one
        # constituent, already taken while chi is checked genuine.
        vals, ms = _genuine(G, V)
        R = real_irreps(G)
        dim = vals[R.complex_table.identity_class].as_int()
        [trivial] = R.entries[R.trivial_index].constituents
        fixed = ms[trivial]
    status = "nonzero_certified" if fixed == 0 else "inconclusive"
    return DetectorVerdict(status=status, degree=-dim, fixed_dim=fixed)
