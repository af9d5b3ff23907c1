"""Instruction mixes."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.hardware.cpu import (
    MIX_EINSTEIN,
    MIX_IDLE,
    MIX_KERNEL,
    MIX_MATRIX,
    MIX_SEVENZIP,
    InstructionMix,
    blend,
)


class TestValidation:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            InstructionMix("bad", 0.5, 0.2, 0.1)

    def test_out_of_range_fraction_rejected(self):
        with pytest.raises(ValueError):
            InstructionMix("bad", 1.5, -0.5, 0.0)

    def test_nonpositive_cpi_rejected(self):
        with pytest.raises(ValueError):
            InstructionMix("bad", 1.0, 0.0, 0.0, cpi=0.0)

    @pytest.mark.parametrize("mix", [
        MIX_SEVENZIP, MIX_MATRIX, MIX_KERNEL, MIX_EINSTEIN, MIX_IDLE,
    ])
    def test_canonical_mixes_valid(self, mix):
        total = mix.int_frac + mix.fp_frac + mix.mem_frac
        assert total == pytest.approx(1.0)


class TestCycleConversion:
    def test_cycles_for(self):
        mix = InstructionMix("m", 1.0, 0.0, 0.0, cpi=2.0)
        assert mix.cycles_for(100) == 200.0

    def test_instructions_for_inverse(self):
        mix = MIX_SEVENZIP
        assert mix.instructions_for(mix.cycles_for(1e6)) == pytest.approx(1e6)

    def test_negative_instructions_rejected(self):
        with pytest.raises(ValueError):
            MIX_SEVENZIP.cycles_for(-1)


class TestCharacter:
    def test_sevenzip_is_int_heavy(self):
        assert MIX_SEVENZIP.int_frac > MIX_SEVENZIP.fp_frac

    def test_matrix_is_fp_heavy(self):
        assert MIX_MATRIX.fp_frac > 0.7

    def test_kernel_is_kernel_mode(self):
        assert MIX_KERNEL.kernel_frac == 1.0

    def test_sevenzip_cache_hungrier_than_einstein(self):
        # drives the 180% dual-thread ceiling vs the small Fig-5 overhead
        assert MIX_SEVENZIP.l2_pressure > MIX_EINSTEIN.l2_pressure


class TestBlend:
    def test_blend_midpoint(self):
        mixed = blend("mid", MIX_SEVENZIP, MIX_MATRIX, 0.5)
        assert mixed.fp_frac == pytest.approx(
            (MIX_SEVENZIP.fp_frac + MIX_MATRIX.fp_frac) / 2
        )
        total = mixed.int_frac + mixed.fp_frac + mixed.mem_frac
        assert total == pytest.approx(1.0)

    def test_blend_extremes(self):
        assert blend("a", MIX_SEVENZIP, MIX_MATRIX, 0.0).cpi == MIX_SEVENZIP.cpi
        assert blend("b", MIX_SEVENZIP, MIX_MATRIX, 1.0).cpi == MIX_MATRIX.cpi

    def test_blend_weight_validated(self):
        with pytest.raises(ValueError):
            blend("bad", MIX_SEVENZIP, MIX_MATRIX, 1.5)

    def test_with_kernel_frac(self):
        assert MIX_MATRIX.with_kernel_frac(0.5).kernel_frac == 0.5


class TestCachedHash:
    def test_unpickled_mix_rehashes_under_its_own_hash_seed(self):
        """A mix pickled here and loaded in a process with another string
        hash seed hashes as that process's field tuple, not with the
        cached value it was pickled with."""
        code = ("import dataclasses, pickle, sys\n"
                "mix = pickle.loads(sys.stdin.buffer.read())\n"
                "print(hash(mix) == hash(dataclasses.astuple(mix)))\n")
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "12345"}
        done = subprocess.run([sys.executable, "-c", code],
                              input=pickle.dumps(MIX_SEVENZIP), env=env,
                              capture_output=True, timeout=60, check=True)
        assert done.stdout.strip() == b"True"
