"""Exception taxonomy shared by all twinroot modules.

Every rejection carries enough context (indices, offending values) to act
as a witness; none of these are ever swallowed internally.
"""

from __future__ import annotations


class TwinrootError(Exception):
    """Base class for all library errors."""


# --- generalized Cartan matrix validation ---------------------------------

class GcmError(TwinrootError):
    pass


class DiagonalNotTwo(GcmError):
    def __init__(self, i: int, value: int):
        super().__init__(f"diagonal entry a[{i}][{i}] = {value}, expected 2")
        self.index = i
        self.value = value


class PositiveOffDiagonal(GcmError):
    def __init__(self, i: int, j: int, value: int):
        super().__init__(f"off-diagonal entry a[{i}][{j}] = {value} > 0")
        self.indices = (i, j)
        self.value = value


class ZeroAsymmetry(GcmError):
    def __init__(self, i: int, j: int):
        super().__init__(f"a[{i}][{j}] = 0 but a[{j}][{i}] != 0")
        self.indices = (i, j)


class PairingMismatch(GcmError):
    def __init__(self, i: int, j: int, got, expected):
        super().__init__(f"<h[{i}], c[{j}]> = {got}, expected a[{i}][{j}] = {expected}")
        self.indices = (i, j)


# --- generic argument errors ----------------------------------------------

class IndexOutOfRange(TwinrootError):
    pass


class RankMismatch(TwinrootError):
    pass


class ExplosionGuard(TwinrootError):
    """Enumeration exceeded its configured cap."""


class MixedSign(TwinrootError):
    """A vector claimed to be a real root has mixed coordinate signs."""


# --- root combinatorics -----------------------------------------------------

class NotPrenilpotent(TwinrootError):
    pass


class UndecidedError(TwinrootError):
    """A bounded search ended without either a witness or a certificate."""


class NotSpherical(TwinrootError):
    pass


class NotNilpotentSet(TwinrootError):
    pass


class OrderingFailed(TwinrootError):
    pass


# --- Tits cone --------------------------------------------------------------

class NotInFundamentalChamber(TwinrootError):
    pass


class NotClosedUnderComposition(TwinrootError):
    pass


class OrbitNotSpherical(TwinrootError):
    pass


# --- matrix groups ----------------------------------------------------------

class BadRoot(TwinrootError):
    pass


class TrivialElement(TwinrootError):
    pass


class NotUnimodular(TwinrootError):
    pass


class DegreeWindowExceeded(TwinrootError):
    pass


# --- twin root datum layer --------------------------------------------------

class OracleInconsistent(TwinrootError):
    pass


class RsdViolation(TwinrootError):
    pass


class NotInGeneratedGroup(TwinrootError):
    pass


class SameSign(TwinrootError):
    pass


class UnknownFormat(TwinrootError):
    pass
