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

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from ._linalg import EXACT, Fixed
from .characters import character_table
from .cyclotomic import CycInt
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


@dataclass
class LinearChart:
    """Equivariant linear data (V, E, alpha) with alpha: V -> E."""

    group: FiniteGroup
    V: MatrixRep
    E: MatrixRep
    alpha: object  # matrix, |E| x |V|

    def __post_init__(self):
        G = self.group
        if self.V.group is not G or self.E.group is not G:
            raise ValidationError("chart pieces must share one group")
        self.tolerance = max(self.V.tolerance, self.E.tolerance)
        self.la = EXACT if self.V.exact and self.E.exact else Fixed(self.tolerance)
        rows, cols = self.E.dimension, self.V.dimension
        if len(self.alpha) != rows or any(len(r) != cols for r in self.alpha):
            raise ValidationError("alpha has the wrong shape")
        self.alpha = self.la.matrix(self.alpha)
        self._check_equivariance()

    def _check_equivariance(self):
        la, alpha = self.la, self.alpha
        for g in generating_set(self.group):
            lhs = la.mul(alpha, la.matrix(self.V.matrices[g]))
            rhs = la.mul(la.matrix(self.E.matrices[g]), alpha)
            if not la.close(lhs, rhs):
                raise ValidationError("alpha is not equivariant")


@dataclass
class IsotypicBlockReport:
    irrep_index: int
    dim_v: int
    dim_e: int
    rank: int
    surjective: bool


@dataclass
class SurjectivityReport:
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


@dataclass
class DetectorVerdict:
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
        # <chi, 1> is the inner product with the trivial character, already
        # taken while chi is checked genuine.
        ct = character_table(G)
        vals, ms = _genuine(G, V)
        dim = vals[ct.identity_class].as_int()
        one = CycInt.from_int(ct.exponent, 1)
        fixed = next(m for m, psi in zip(ms, ct.values) if all(v == one for v in psi))
    status = "nonzero_certified" if fixed == 0 else "inconclusive"
    return DetectorVerdict(status=status, degree=-dim, fixed_dim=fixed)
