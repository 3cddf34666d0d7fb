"""Resource caps and search budgets.

Defaults target desk-scale interactive use; the CLI can raise the two hard
caps per invocation.  The caps exist to turn accidental combinatorial
explosions into clean errors instead of hangs.
"""

MAX_GROUP_ORDER = 200
MAX_FIELD_SIZE = 2**20

# Exhaustive-scan ceiling: the Las Vegas searches scan every element of a
# space (module vectors for Norton, a span of endomorphisms) after their
# random attempts only when it has at most this many elements.
SCAN_CAP = 8192

# Random attempts of Norton's test and of splitting an endomorphism algebra,
# before the scan or InconclusiveError.  An isomorphism test spends them only
# inside `decompose`, when both sides are decomposable.
RANDOM_ATTEMPTS = 200

# Default extension-degree bound for fiber and preimage searches.
DEGREE_BOUND = 6

# Canonical standard-basis forms are computed only for modules this small.
CANONICAL_DIM_CAP = 8
CANONICAL_ORBIT_CAP = 1024
