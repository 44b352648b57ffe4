"""Error taxonomy for the coupling-coefficient engine."""


class So5Error(Exception):
    """Base class for engine failures."""


class OutOfRange(So5Error):
    """An irrep label violates the range rules of its labeling scheme."""


class NotInSeries(So5Error):
    """The target irrep does not occur in the Kronecker series."""


class BranchingViolation(So5Error):
    """A subalgebra label is not contained in the branching of the irrep."""


class InternalInconsistency(So5Error):
    """An algorithm self-check failed; signals a bug, not bad input."""


class RankDefect(So5Error):
    """System nullity does not match the outer multiplicity after augmentation."""


class NormInconsistency(So5Error):
    """Norm or inner-product matrix differs between label groups."""


class DegenerateForm(So5Error):
    """Gram-Schmidt hit a nonpositive or irrational squared norm."""


class LadderNullUnexpected(So5Error):
    """A ladder operator annihilated a state it should not have."""


class StoreError(So5Error):
    """Coefficient store I/O or integrity failure."""


class NotFactorable(So5Error):
    """A matrix is not diag(sqrt a) Q diag(sqrt b) with Q rational."""
