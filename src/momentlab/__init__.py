"""Exact q-adic moment-curve laboratory.

Arithmetic in Z[1/q], harmonic analysis for modulated step functions on
Q_q^k, moment-curve tilings and wavepackets, exact Vinogradov solution
counting, decoupling instance checks, and the exponent iteration engine.
All lemma-level statements are verified exactly or against independent
oracles at desk scale; see the verify module and the test suite.
"""

__version__ = "0.1.0"

from .errors import BudgetExceededError, MomentLabError, SupportError, VerificationError
from .geometry import Cube, Interval, ThetaBox, Tile, ball, gamma, unit_interval
from .qadic import QRational, QVector, char_value
from .stepfn import ModulatedStep
from .wavepackets import PigeonholeBucket, ScaleConfig, WavepacketSet

__all__ = [
    "__version__",
    "BudgetExceededError",
    "MomentLabError",
    "SupportError",
    "VerificationError",
    "QRational",
    "QVector",
    "char_value",
    "Interval",
    "Cube",
    "ThetaBox",
    "Tile",
    "ball",
    "gamma",
    "unit_interval",
    "ModulatedStep",
    "ScaleConfig",
    "WavepacketSet",
    "PigeonholeBucket",
]
