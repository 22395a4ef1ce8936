"""Fixed make-up of the workloads, shared by the worker and the checker.

Plain data only: the checker imports this without importing antiprelie.
"""

NAMES = ("z2-brute-gf5", "catalog-symbolic", "constructions")

# the calibration loop (calibration.LOOPS) each workload's times are
# scaled by: array work for the scan, interpreter work for the rest
CALIBRATION = {"z2-brute-gf5": "arrays", "catalog-symbolic": "interpreter",
               "constructions": "interpreter"}

# the 13 oracle bases: (family, lambda)
Z2_BASES = (("A2", None), ("A3", None), ("A4", None), ("A5", None),
            ("A6", -2), ("A6", -1), ("A6", 0), ("A6", 1), ("A7", None),
            ("A8", -2), ("A8", 0), ("A8", 1), ("A9", None))
Z2_PRIME = 5

# catalog verification items per scope (110 in all)
SCOPE_ITEMS = {"A-families": 9, "CA-families": 45, "automorphisms": 9,
               "cocycles": 22, "transformations": 22, "internal-isos": 3}
VERIFY_FAMILIES = tuple(f"A{i}" for i in range(2, 10))

# the three GF(5) left-multiplication pairs with 5^4 anti-O searches
ANTI_O_BASES = (("CA30", {"beta": 1, "gamma": 2}, None),
                ("CA35", {"lambda": 1, "alpha": 2, "beta": 1}, 1),
                ("CA38", {"lambda": 1, "alpha": 1, "beta": 2}, 1))
ANTI_O_PRIME = 5
# (prime or None for Q, dimension) of the two-vector constructions
VECTOR_FIELDS = ((None, 2), (None, 3), (5, 2), (5, 3), (7, 2), (7, 3))
ROUND_TRIPS = 4
DOUBLES = 3
# The negative controls do not depend on the run's seed: three of them
# fail every time (failure_count is capped at 16 per pair member), so
# the failed share of a run must not vary with the seed.
NEGATIVE_SEED = 2412
NEGATIVE_PRIME = 5
