"""Exception hierarchy with stable machine-readable categories.

The ``category`` attribute is what the CLI prints on failure, so scripts can
branch on it without parsing human-oriented messages.
"""


class QdistillError(Exception):
    category = "Error"


class InvalidSpecError(QdistillError):
    category = "InvalidSpec"


class PivotNotMinimalError(QdistillError):
    category = "PivotNotMinimal"


class PivotNotMaximalError(QdistillError):
    category = "PivotNotMaximal"


class DenseCapExceededError(QdistillError):
    category = "DenseCapExceeded"


class WorkCapExceededError(QdistillError):
    category = "WorkCapExceeded"


class BadPartitionError(QdistillError):
    category = "BadPartition"


class InvalidSteeringScenarioError(QdistillError):
    category = "InvalidSteeringScenario"


class DimensionMismatchError(QdistillError):
    category = "DimensionMismatch"


class NotHermitianError(QdistillError):
    category = "NotHermitian"


class NotPositiveError(QdistillError):
    category = "NotPositiveSemidefinite"
