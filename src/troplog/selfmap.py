"""Self-maps of the log torus: t -> degree * t + translation.

A few lines of integer and rational arithmetic, kept apart from the moduli
so that the ``selfmap`` command loads neither trees nor PL functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .affine import Rat, as_fraction, fraction_str


@dataclass(frozen=True)
class SelfMapNormalForm:
    """Normal form t -> degree * t + translation; kernel has |degree| elements."""

    degree: int
    translation: Fraction

    @property
    def kernel_order(self) -> int:
        return abs(self.degree)

    def compose(self, other: "SelfMapNormalForm") -> "SelfMapNormalForm":
        """self after other: substitute other's map into self's."""
        return SelfMapNormalForm(
            self.degree * other.degree, self.translation + self.degree * other.translation
        )

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "translation": fraction_str(self.translation),
            "kernel_order": self.kernel_order,
        }


def classify_self_map(r: int, a: Rat) -> SelfMapNormalForm:
    """Discrete classification data of a self-map of the log torus."""
    return SelfMapNormalForm(int(r), as_fraction(a))
