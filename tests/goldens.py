"""Shared reference planes and progression families used across the test suite."""

from fractions import Fraction as Fr

# Planes named by the analysis route they take and the base distance they attain.
STRIP_QUARTER = ((0, 1, 2, 3), (1, 0, 0, 0))
SECTOR_QUARTER = ((1, 0, 1, 1), (1, 1, 0, 2))
STRIP_TENTH_A = ((0, 1, 4), (1, 0, 0))
STRIP_TENTH_B = ((0, 2, 3), (1, 0, 0))
SECTOR_TENTH_A = ((0, 1, 3), (1, 0, 1))
SECTOR_TENTH_B = ((0, 1, 2), (1, 1, 0))
SECTOR_THIRD = ((1, 0, 1, 2, 3, 3), (0, 1, 1, 1, 1, 2))
FINITE_THREE_TENTHS = ((1, 2, 3, 2, 0, 0, 0), (0, 0, 0, 2, 1, 2, 3))

TENTH_PLANES = (STRIP_TENTH_A, STRIP_TENTH_B, SECTOR_TENTH_A, SECTOR_TENTH_B)

# Maximal normalized families covering every certified tenth-base value.
FAMILY_STEEP = (Fr(25, 4), Fr(35, 4))
FAMILY_SHALLOW = (Fr(25, 3), Fr(20, 3))
# Tail of the shallow family starting one step later; used for the reverse check.
FAMILY_SHALLOW_TAIL = (Fr(25, 3), Fr(15))

