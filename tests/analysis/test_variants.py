"""Tests for variant-level race certification."""

import numpy as np
import pytest

from repro.analysis.variants import (
    RACY_TAG,
    certify_all,
    certify_variant,
    variant_phases,
    verdict_table,
)
from repro.common.errors import KernelError
from repro.easypap.kernel import REGISTRY, KernelRegistry


class TestVariantPhases:
    def test_sync_cell_model_is_per_interior_cell(self):
        phases = variant_phases("sandpile", "seq", height=3, width=4, tile_size=2)
        assert len(phases) == 1
        assert len(phases[0]) == 12

    def test_async_waves_are_serialised_phases(self):
        phases = variant_phases("asandpile", "omp", height=8, width=8, tile_size=4)
        assert len(phases) == 4  # checkerboard waves
        assert sum(len(p) for p in phases) == 4  # 2x2 tiles total

    def test_unknown_variant_has_no_model(self):
        assert variant_phases("sandpile", "cuda", height=4, width=4, tile_size=2) is None


class TestCertifyVariant:
    def test_sync_tiled_certifies_race_free(self):
        v = certify_variant("sandpile", "tiled")
        assert v.verdict == "race-free" and v.expected == "race-free" and v.ok

    def test_async_sweep_flagged_racy_and_expected(self):
        # the deliberately-racy variant: flagged, and the whitelist tag
        # makes the flag the *expected* outcome
        v = certify_variant("asandpile", "seq")
        assert v.verdict == "racy"
        assert v.expected == "racy"
        assert v.ok
        assert RACY_TAG in REGISTRY.get("asandpile", "seq").tags

    def test_async_waves_certify_race_free(self):
        v = certify_variant("asandpile", "omp")
        assert v.verdict == "race-free" and v.ok

    def test_unit_tiles_break_the_wave_guarantee(self):
        # checker sensitivity: with 1-cell tiles the wave partition no
        # longer separates write halos, and certification must fail
        v = certify_variant("asandpile", "omp", tile_size=1)
        assert v.verdict == "racy"
        assert not v.ok

    def test_unmodelled_variant_fails_certification(self):
        reg = KernelRegistry()
        reg.register("sandpile", "mystery", lambda grid: None)
        v = certify_variant("sandpile", "mystery", registry=reg)
        assert v.verdict == "unmodelled"
        assert not v.ok

    def test_unknown_variant_raises(self):
        with pytest.raises(KernelError):
            certify_variant("sandpile", "nope")


class TestCertifyAll:
    def test_every_registered_variant_certifies(self):
        verdicts = certify_all()
        assert len(verdicts) == len(REGISTRY)
        assert all(v.ok for v in verdicts), verdict_table(verdicts)

    def test_exactly_the_tagged_variants_are_racy(self):
        verdicts = certify_all()
        racy = {v.qualified_name for v in verdicts if v.verdict == "racy"}
        tagged = {
            info.qualified_name for info in REGISTRY.all_variants() if RACY_TAG in info.tags
        }
        assert racy == tagged
        assert racy == {"asandpile/seq", "asandpile/vec", "asandpile/frontier"}

    def test_verdict_table_lists_all_variants(self):
        verdicts = certify_all()
        table = verdict_table(verdicts)
        for v in verdicts:
            assert v.qualified_name in table
        assert "FAIL" not in table


class TestCertifyDynamicFrontier:
    """End-to-end certification of the frontier region's per-step row shares."""

    def test_real_run_certifies_race_free(self):
        from repro.analysis.variants import certify_dynamic_frontier

        cert = certify_dynamic_frontier(
            height=20, width=20, tile_size=4, nworkers=4, max_iterations=120
        )
        assert cert.ok
        assert cert.iterations > 0
        # the off-centre seed shrinks the frontier: the shares change size
        assert len({cc.static.ntasks for cc in cert.crosses}) > 1
        assert len(cert.crosses) == cert.iterations
        for cc in cert.crosses:
            assert cc.sound and cc.ok
            assert not cc.static.racy
        text = cert.summary()
        assert "race-free" in text
        assert str(cert.iterations) in text

    @pytest.mark.parametrize("nworkers", [2, 4])
    @pytest.mark.parametrize("k", [1, 2])
    def test_certifies_at_two_and_four_participants(self, nworkers, k):
        from repro.analysis.variants import certify_dynamic_frontier

        cert = certify_dynamic_frontier(
            height=16, width=16, tile_size=2, nworkers=nworkers, k=k, max_iterations=120
        )
        assert cert.ok
        # a cover of more than one tile row is split among participants
        assert max(cc.static.ntasks for cc in cert.crosses) == nworkers
        assert f"nworkers={nworkers}" in cert.summary()

    def test_shares_overlapping_by_one_row_are_racy(self):
        """Two participants whose row runs share one destination row write
        it both: the static check and the shadow replay both say racy."""
        from repro.analysis.variants import check_region_shares
        from repro.easypap.executor import TileTask
        from repro.easypap.tiling import Tile
        from repro.sandpile.model import random_uniform

        planes = [random_uniform(8, 8, max_grains=7, seed=1).data, np.zeros((10, 10), np.int64)]

        def rows(y0, y1):
            return [TileTask("sync_tile_nc", 0, 1, Tile(0, 0, 0, y0, 0, y1 - y0, 8))]

        split = check_region_shares([rows(0, 4), rows(4, 8)], [p.copy() for p in planes])
        assert split.ok and not split.static.racy and not split.dynamic.racy
        overlap = check_region_shares([rows(0, 5), rows(4, 8)], [p.copy() for p in planes])
        assert overlap.static.racy and overlap.dynamic.racy
        written = {c.cell for c in overlap.static.conflicts if c.kind == "write-write"}
        assert {y for y, _ in written} == {5}  # interior row 4, framed
