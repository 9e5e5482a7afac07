"""Tests for the seeded randomness utilities."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.rng import Rng, hash_fraction, stable_hash


class TestRng:
    def test_same_seed_same_stream(self):
        a, b = Rng(42), Rng(42)
        assert [a.randint(0, 100) for _ in range(20)] == \
               [b.randint(0, 100) for _ in range(20)]

    def test_different_seeds_differ(self):
        a, b = Rng(1), Rng(2)
        assert [a.randint(0, 10**9) for _ in range(5)] != \
               [b.randint(0, 10**9) for _ in range(5)]

    def test_child_streams_independent_of_draw_order(self):
        r1 = Rng(9)
        r1.randint(0, 5)  # perturb the parent
        c1 = r1.child("inputs")
        c2 = Rng(9).child("inputs")
        assert [c1.random() for _ in range(5)] == [c2.random() for _ in range(5)]

    def test_child_tags_distinct(self):
        r = Rng(3)
        assert r.child("a").seed != r.child("b").seed

    def test_randint_bounds(self):
        r = Rng(0)
        vals = [r.randint(3, 7) for _ in range(200)]
        assert min(vals) >= 3 and max(vals) <= 7
        assert set(vals) == {3, 4, 5, 6, 7}

    def test_randint_empty_range_raises(self):
        with pytest.raises(ValueError):
            Rng(0).randint(5, 4)

    def test_log_randint_bounds_and_bias(self):
        r = Rng(5)
        vals = [r.log_randint(2, 400) for _ in range(2000)]
        assert min(vals) >= 2 and max(vals) <= 400
        # log-uniform: median far below the arithmetic midpoint
        vals.sort()
        assert vals[len(vals) // 2] < 100

    def test_log_randint_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Rng(0).log_randint(0, 5)

    def test_choice_empty_raises(self):
        with pytest.raises(ValueError):
            Rng(0).choice([])

    def test_weighted_choice_respects_zero_weight(self):
        r = Rng(1)
        picks = {r.weighted_choice([("a", 1.0), ("b", 0.0)])
                 for _ in range(100)}
        assert picks == {"a"}

    def test_weighted_choice_negative_weight_raises(self):
        with pytest.raises(ValueError):
            Rng(0).weighted_choice([("a", -1.0)])

    def test_weighted_choice_all_zero_raises(self):
        with pytest.raises(ValueError):
            Rng(0).weighted_choice([("a", 0.0)])

    def test_coin_probability(self):
        r = Rng(11)
        heads = sum(r.coin(0.25) for _ in range(4000))
        assert 800 <= heads <= 1200  # ~1000 expected

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=30, deadline=None)
    def test_any_seed_works(self, seed):
        r = Rng(seed)
        assert 0.0 <= r.random() < 1.0


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("a", 1, 2.5) == stable_hash("a", 1, 2.5)

    def test_sensitive_to_each_part(self):
        base = stable_hash("x", "y")
        assert stable_hash("x", "z") != base
        assert stable_hash("z", "y") != base

    def test_part_boundaries_matter(self):
        # "ab"+"c" must hash differently from "a"+"bc"
        assert stable_hash("ab", "c") != stable_hash("a", "bc")

    def test_hash_fraction_in_unit_interval(self):
        for i in range(100):
            f = hash_fraction("t", i)
            assert 0.0 <= f < 1.0

    def test_hash_fraction_spreads(self):
        fs = [hash_fraction("spread", i) for i in range(500)]
        assert 0.4 < sum(fs) / len(fs) < 0.6


class TestRngModes:
    """Compat/fast stream derivation (see the repro.rng module docstring).

    Golden values below are **pinned**: compat goldens certify the SHA-256
    derivation still draws the seed reproduction's exact streams; fast
    goldens certify the SplitMix64 derivation is stable across releases.
    """

    # -- compat: the seed reproduction's streams, byte for byte --------
    def test_compat_is_default(self):
        from repro.rng import get_rng_mode
        assert Rng(1).mode == "compat"
        assert get_rng_mode() == "compat"

    def test_compat_child_seed_golden(self):
        assert Rng(20240915).child("program:0").seed == 3440985259716438606

    def test_compat_draw_golden(self):
        r = Rng(42)
        assert [r.randint(0, 10**6) for _ in range(3)] == \
            [670487, 116739, 26225]

    def test_compat_stable_hash_golden(self):
        assert stable_hash("fault", "gcc", "crash", "abc") == \
            17089797366378928928

    # -- fast: a different but equally deterministic space -------------
    def test_fast_child_seed_golden(self):
        r = Rng(20240915, mode="fast")
        assert r.child("program:0").seed == 5153825784578095020

    def test_fast_stable_hash_golden(self):
        assert stable_hash("fault", "gcc", "crash", "abc",
                           mode="fast") == 11051245383135618569
        assert hash_fraction("x", 7, mode="fast") == \
            pytest.approx(0.4136357609230524, abs=0)

    def test_fast_children_inherit_mode_and_diverge_from_compat(self):
        fast_child = Rng(9, mode="fast").child("inputs")
        assert fast_child.mode == "fast"
        assert fast_child.seed != Rng(9).child("inputs").seed

    def test_fast_child_tags_distinct_and_reproducible(self):
        a = Rng(3, mode="fast")
        assert a.child("a").seed != a.child("b").seed
        assert a.child("a").seed == Rng(3, mode="fast").child("a").seed

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="unknown rng mode"):
            Rng(0, mode="quantum")
        with pytest.raises(ValueError, match="unknown rng mode"):
            stable_hash("x", mode="quantum")

    def test_global_mode_switch(self):
        from repro.rng import get_rng_mode, set_rng_mode
        assert get_rng_mode() == "compat"
        try:
            set_rng_mode("fast")
            assert Rng(5).mode == "fast"
        finally:
            set_rng_mode("compat")
        assert Rng(5).mode == "compat"
        with pytest.raises(ValueError):
            set_rng_mode("quantum")


class TestRngModeStreams:
    """The generator-level guarantees of the two modes."""

    #: first four gcc-binary fingerprints of the paper-mix compat stream,
    #: pinned against the seed reproduction (byte-identical programs)
    PAPER_COMPAT_FPS = ["c9b22ab2ce9593eb", "c409d9f38df53e6d",
                        "34c2d1ecdfff5c76", "ef6556d6e9136017"]
    #: same positions under the fast derivation — a different, pinned space
    PAPER_FAST_FPS = ["f4088fec5a87bd52", "bb2baa67cc3ff8d0",
                      "be88a60687acd9ad", "a7bc772f5ba4fda6"]

    @staticmethod
    def _fingerprints(rng_mode: str) -> list[str]:
        import dataclasses

        from repro.config import CampaignConfig
        from repro.core.generator import ProgramGenerator
        from repro.vendors import GCC, compile_binary

        cfg = CampaignConfig(n_programs=4, directive_mix="paper",
                             seed=20240915)
        gen_cfg = dataclasses.replace(cfg.generator, rng_mode=rng_mode)
        gen = ProgramGenerator(gen_cfg, seed=cfg.seed)
        return [compile_binary(gen.generate(i), GCC).fingerprint[:16]
                for i in range(4)]

    def test_paper_mix_compat_stream_is_byte_identical_to_seed(self):
        assert self._fingerprints("compat") == self.PAPER_COMPAT_FPS

    def test_paper_mix_fast_stream_pinned(self):
        fps = self._fingerprints("fast")
        assert fps == self.PAPER_FAST_FPS
        assert fps != self.PAPER_COMPAT_FPS

    def test_fast_mode_deterministic_across_process_restart(self):
        import subprocess
        import sys

        code = (
            "import dataclasses\n"
            "from repro.config import CampaignConfig\n"
            "from repro.core.generator import ProgramGenerator\n"
            "from repro.vendors import GCC, compile_binary\n"
            "cfg = CampaignConfig(n_programs=4, directive_mix='paper',"
            " seed=20240915)\n"
            "gen_cfg = dataclasses.replace(cfg.generator, rng_mode='fast')\n"
            "gen = ProgramGenerator(gen_cfg, seed=cfg.seed)\n"
            "print(' '.join(compile_binary(gen.generate(i), GCC)"
            ".fingerprint[:16] for i in range(4)))\n"
        )
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == self.PAPER_FAST_FPS

    def test_fault_decisions_ignore_rng_mode(self):
        from repro.rng import set_rng_mode
        from repro.vendors.gcc import GCC

        fp = "deadbeef" * 8
        compat_roll = GCC._roll(fp, "crash")
        try:
            set_rng_mode("fast")
            assert GCC._roll(fp, "crash") == compat_roll
        finally:
            set_rng_mode("compat")
