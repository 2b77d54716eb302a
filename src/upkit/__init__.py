"""upkit: exact combinatorics of unipotent classes and weak Arthur packets.

The package computes, for split symplectic and odd special orthogonal
p-adic groups, the block/class structure of unipotent partitions, the
canonical-quotient character groups, special pieces and the B/C duality,
near-tempered A-parameter tables and their packets, Weyl-group
(bi)partition representation theory, and the Green-tableau sphericity
algorithm — all over exact integers, with brute-force oracles alongside
the combinatorial rules.
"""

from .errors import (
    BadParity,
    BoundExceeded,
    MalformedOutput,
    MoveNotApplicable,
    NotCanonical,
    NotContained,
    NotInI,
    NotInJ,
    NotInPiece,
    NotSpringerType,
    ParityViolation,
    UpkitError,
    WrongTotal,
)
from .partitions import (
    ClassPartition,
    GroupType,
    Partition,
    classify,
    difference,
    dominates,
    enumerate_classes,
    good_parity_classes,
    partitions_of,
    union,
)

__version__ = "0.1.0"
