"""Depolarizing-channel sampling and syndrome extraction.

Pauli errors are symplectic bit-vector pairs (x, z): X sets the x bit,
Z sets the z bit, Y sets both.  A qubit is untouched with probability
1 - p and carries X, Y or Z at the single rate p/3 each, so either
component flips with probability 2p/3.  Randomness comes from a
counter-based generator keyed by (seed, point index, trial index), so
every trial's outcome is independent of worker scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import QuantumQcCode
from .gf2 import as_bits, as_int

__all__ = [
    "PauliError",
    "Syndrome",
    "sample_error",
    "extract_syndrome",
    "trial_rng",
    "trial_uniforms",
    "pauli_bits",
]


@dataclass(frozen=True)
class PauliError:
    """Length-n error pair: x marks X or Y on a qubit, z marks Z or Y."""

    x: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        if self.x.shape != self.z.shape or self.x.ndim != 1:
            raise ValueError("x and z must be 1-D arrays of equal length")
        as_bits("x", self.x, self.x.shape)
        as_bits("z", self.z, self.z.shape)

    @property
    def n(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class Syndrome:
    """Observed pair (s, t) = (H_Z @ x, H_X @ z)."""

    s: np.ndarray
    t: np.ndarray


def _trial_key(seed: int, point_index: int, trial_index: int) -> np.ndarray:
    """Philox key [seed, point << 32 | trial]; a field that is not an integer, or
    is out of range, raises ValueError."""
    seed, point, trial = (as_int("seed", seed), as_int("point index", point_index),
                          as_int("trial index", trial_index))
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    for name, index in (("point index", point), ("trial index", trial)):
        if not 0 <= index < 2**32:
            raise ValueError(f"{name} must be in [0, 2**32), got {index}")
    return np.array([seed, (point << 32) | trial], dtype=np.uint64)


def trial_rng(seed: int, point_index: int, trial_index: int) -> np.random.Generator:
    """Counter-based random stream for one Monte Carlo trial.

    Philox keyed by the (seed, point, trial) triple: the same triple
    always yields the same stream, regardless of how trials are
    scheduled across workers.  The key is [seed, point << 32 | trial],
    so a value outside its field would alias another triple's stream;
    such values raise ValueError instead of wrapping.
    """
    return np.random.Generator(np.random.Philox(key=_trial_key(seed, point_index, trial_index)))


def trial_uniforms(seed: int, point_index: int, trials: range, n: int) -> np.ndarray:
    """Row i is trial_rng(seed, point_index, trials[i]).random(n), from one
    Philox re-keyed per trial (a new Philox draws OS entropy even when keyed)."""
    bitgen = np.random.Philox()
    rng, state = np.random.Generator(bitgen), bitgen.state  # zero counter, empty buffer
    u = np.empty((len(trials), n))
    for row, t in zip(u, trials):
        state["state"]["key"] = _trial_key(seed, point_index, t)
        bitgen.state = state
        rng.random(out=row)
    return u


def pauli_bits(u: np.ndarray, p_d: float) -> tuple[np.ndarray, np.ndarray]:
    """(x, z) bits of uniforms u: u < p/3 -> X, u < 2p/3 -> Y, u < p -> Z."""
    x = (u < 2.0 * p_d / 3.0).astype(np.uint8)
    z = ((u >= p_d / 3.0) & (u < p_d)).astype(np.uint8)
    return x, z


def sample_error(n: int, p_d: float, rng: np.random.Generator) -> PauliError:
    """Draw i.i.d. depolarizing noise on n qubits.

    Each qubit is untouched with probability 1 - p_d, otherwise X, Y,
    or Z uniformly.  One uniform draw per qubit decides both the event
    and the Pauli (see pauli_bits).
    """
    if not 0.0 <= p_d <= 1.0:
        raise ValueError(f"depolarizing rate must be in [0, 1], got {p_d}")
    x, z = pauli_bits(rng.random(n), p_d)
    return PauliError(x=x, z=z)


def extract_syndrome(code: QuantumQcCode, e: PauliError) -> Syndrome:
    """Measure (s, t) = (H_Z @ x, H_X @ z) over GF(2) on the decoder's Tanner graphs."""
    if e.n != code.n:
        raise ValueError(f"error length {e.n} does not match code length {code.n}")
    return Syndrome(s=code.h_z.check_sums(e.x), t=code.h_x.check_sums(e.z))
