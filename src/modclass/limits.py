"""Resource caps and search budgets.

Defaults target desk-scale interactive use; the CLI can raise the two hard
caps per invocation.  The caps exist to turn accidental combinatorial
explosions into clean errors instead of hangs.
"""

MAX_GROUP_ORDER = 200
MAX_FIELD_SIZE = 2**20

# Budgets of meataxe._las_vegas, which runs Norton's test and the splitting
# of an endomorphism algebra: RANDOM_ATTEMPTS random attempts, then a scan of
# the whole space (module vectors, a span of endomorphisms) if it has at most
# SCAN_CAP elements, else InconclusiveError.  An isomorphism test spends
# them only inside `decompose`, when both sides are decomposable.
SCAN_CAP = 8192
RANDOM_ATTEMPTS = 200

# Default extension-degree bound for fiber and preimage searches.
DEGREE_BOUND = 6

# Canonical standard-basis forms are computed only for modules this small.
CANONICAL_DIM_CAP = 8
CANONICAL_ORBIT_CAP = 1024
