"""Seeded operator inputs for the benchmark.

Every operator is built as F F* from a random complex Gaussian factor F
(d x r) scaled to unit Frobenius norm, so it has trace one and rank r.
The factors stay in memory for the reference check; only the operator
files, in the CLI's ``dim``/``entries`` format, reach the program.

Each input is drawn from its own generator, keyed by (seed, stream,
index), so warm-up, timed, traced and sweep inputs come from disjoint
streams and the same seed always gives the same inputs.  Every operator
file written in a run is hashed, and a repeated hash raises: a
cross-call cache must never see an input twice, or it would look like a
speed-up that a one-shot CLI user never gets.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

STREAMS = {"warmup": 0, "timed": 1, "traced": 2, "sweep": 3, "single": 4}


class RepeatedInputError(RuntimeError):
    """An operator file with the same bytes was already written in this run."""


@dataclass(frozen=True)
class Operator:
    path: str
    factor: np.ndarray


@dataclass(frozen=True)
class Pair:
    """Two operator files with their factors and a per-input seed for the task."""

    rho: Operator
    omega: Operator
    task_seed: int

    @property
    def dim(self) -> int:
        return self.rho.factor.shape[0]


def random_factor(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    f = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    return f / np.linalg.norm(f)


def operator_matrix(factor: np.ndarray) -> np.ndarray:
    """The Hermitian operator F F* written for factor F."""
    m = factor @ factor.conj().T
    return (m + m.conj().T) / 2.0


def operator_bytes(factor: np.ndarray) -> bytes:
    m = operator_matrix(factor)
    payload = {
        "dim": int(m.shape[0]),
        "entries": [[float(z.real), float(z.imag)] for z in m.ravel()],
    }
    return json.dumps(payload).encode("ascii")


class InputGenerator:
    """Writes seeded operator files into ``workdir`` and rejects repeats."""

    def __init__(self, seed: int, workdir: str):
        self.seed = int(seed)
        self.workdir = workdir
        self._seen: set[str] = set()
        os.makedirs(workdir, exist_ok=True)

    def _rng(self, stream: str, index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, STREAMS[stream], index])

    def _write(self, name: str, factor: np.ndarray) -> Operator:
        raw = operator_bytes(factor)
        digest = hashlib.sha256(raw).hexdigest()
        if digest in self._seen:
            raise RepeatedInputError(f"operator {name} repeats an earlier input ({digest[:12]})")
        self._seen.add(digest)
        path = os.path.join(self.workdir, name)
        with open(path, "wb") as handle:
            handle.write(raw)
        return Operator(path, factor)

    def pair(self, stream: str, index: int, dim: int, rank: str) -> Pair:
        """Pair of operators on C^dim.

        ``rank`` is ``"full"``, ``"half"`` (both rank dim // 2) or
        ``"deficient"``.  Deficient ranks are uniform on 1..dim-1 and
        independent between rho and omega, so every pair is singular and
        the supports differ.  They are stratified: each block of dim - 1
        consecutive inputs of a stream uses every rank once per side, in
        two independently shuffled orders that depend on the stream and
        the block but not on the seed.  Task cost grows with the smaller
        rank, so a run's mix of costs, warm-up included, is the same for
        every seed; the seed draws the factors.
        """
        if rank == "full":
            ranks = (dim, dim)
        elif rank == "half":
            ranks = (max(1, dim // 2),) * 2
        elif rank == "deficient":
            block, position = divmod(index, dim - 1)
            # four key words, so no (seed, stream, index) key can coincide
            orders = np.random.default_rng([STREAMS[stream], block, dim, 7]).permuted(
                np.tile(np.arange(1, dim), (2, 1)), axis=1)
            ranks = (int(orders[0, position]), int(orders[1, position]))
        else:
            raise ValueError(f"unknown rank mode {rank!r}")
        rng = self._rng(stream, index)
        a = random_factor(rng, dim, ranks[0])
        c = random_factor(rng, dim, ranks[1])
        task_seed = int(rng.integers(0, 2**31 - 1))
        stem = f"{stream}-{index}"
        return Pair(self._write(f"{stem}-rho.json", a), self._write(f"{stem}-omega.json", c), task_seed)

    def operator(self, stream: str, index: int, dim: int) -> Operator:
        """One full-rank operator on C^dim."""
        rng = self._rng(stream, index)
        return self._write(f"{stream}-{index}-tau.json", random_factor(rng, dim, dim))


def discard(*operators: Operator) -> None:
    for op in operators:
        os.remove(op.path)
