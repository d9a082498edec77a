"""Seeded inputs are reproducible, disjoint across streams and never repeat."""

import os

import numpy as np
import pytest

from bench.inputs import InputGenerator, RepeatedInputError, discard
from pairdecomp.cli import load_state


def test_same_seed_same_bytes_and_only_operator_files(tmp_path):
    first = InputGenerator(5, str(tmp_path / "a")).pair("timed", 3, 6, "deficient")
    second = InputGenerator(5, str(tmp_path / "b")).pair("timed", 3, 6, "deficient")
    for x, y in ((first.rho, second.rho), (first.omega, second.omega)):
        with open(x.path, "rb") as fx, open(y.path, "rb") as fy:
            assert fx.read() == fy.read()
    assert sorted(os.listdir(tmp_path / "a")) == ["timed-3-omega.json", "timed-3-rho.json"]
    state, _ = load_state(first.rho.path)
    assert state.dim == 6


def test_deficient_ranks_cover_1_to_d_minus_1_in_every_block(tmp_path):
    gen = InputGenerator(1, str(tmp_path))
    ranks = []
    for index in range(12):
        pair = gen.pair("timed", index, 5, "deficient")
        ranks.append((pair.rho.factor.shape[1], pair.omega.factor.shape[1]))
        discard(pair.rho, pair.omega)
    assert os.listdir(tmp_path) == []
    for block in (ranks[0:4], ranks[4:8], ranks[8:12]):
        assert sorted(r for r, _ in block) == [1, 2, 3, 4]
        assert sorted(w for _, w in block) == [1, 2, 3, 4]
    assert any(r != w for r, w in ranks)  # the two sides are shuffled independently


def test_repeats_are_rejected_within_a_run(tmp_path):
    gen = InputGenerator(9, str(tmp_path))
    gen.pair("warmup", 0, 4, "full")
    gen.pair("timed", 0, 4, "full")  # other stream, other input
    with pytest.raises(RepeatedInputError):
        gen.pair("warmup", 0, 4, "full")


def test_streams_and_seeds_differ(tmp_path):
    a = InputGenerator(1, str(tmp_path / "a"))
    b = InputGenerator(2, str(tmp_path / "b"))
    pairs = [a.pair("warmup", 0, 4, "full"), a.pair("timed", 0, 4, "full"),
             b.pair("timed", 0, 4, "full")]
    factors = [p.rho.factor for p in pairs]
    for i in range(len(factors)):
        for j in range(i):
            assert not np.allclose(factors[i], factors[j])
