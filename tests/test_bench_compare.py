"""Unit tests for the bench harness's baseline comparison.

Satellite regression: ``bench --check`` used to index the baseline table
directly (``ref[name]``), so any variant asymmetry between the baseline
and the current build — a newly added variant, or a stale baseline naming
a removed one — crashed with a KeyError instead of reporting drift.  The
comparison must fail only on genuine regressions over the intersection
and surface asymmetries as warnings.

The harness lives in ``benchmarks/`` (outside the package), so it is
loaded by file path; importing it executes only constants and function
definitions, never a measurement.
"""

import importlib.util
import pathlib
import sys

_BENCH = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "bench_hotpath.py"
_spec = importlib.util.spec_from_file_location("bench_hotpath_under_test", _BENCH)
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench
_spec.loader.exec_module(bench)

compare_ratio_tables = bench.compare_ratio_tables


class TestCompareRatioTables:
    def test_identical_tables_clean(self):
        table = {"vec": 1.0, "frontier": 0.3, "omp": 1.4}
        failures, warnings = compare_ratio_tables(table, dict(table), 0.30)
        assert failures == []
        assert warnings == []

    def test_regression_over_tolerance_fails(self):
        ref = {"vec": 1.0, "frontier": 0.30}
        cur = {"vec": 1.0, "frontier": 0.45}  # +50% > 30% tolerance
        failures, _ = compare_ratio_tables(ref, cur, 0.30)
        assert len(failures) == 1
        assert "frontier" in failures[0]

    def test_within_tolerance_passes(self):
        ref = {"vec": 1.0, "frontier": 0.30}
        cur = {"vec": 1.0, "frontier": 0.36}  # +20% <= 30%
        failures, warnings = compare_ratio_tables(ref, cur, 0.30)
        assert failures == [] and warnings == []

    def test_improvement_never_fails(self):
        ref = {"frontier": 0.30}
        cur = {"frontier": 0.10}
        failures, _ = compare_ratio_tables(ref, cur, 0.30)
        assert failures == []

    def test_new_variant_warns_not_keyerror(self):
        ref = {"vec": 1.0, "frontier": 0.3}
        cur = {"vec": 1.0, "frontier": 0.3, "pfrontier": 2.5}  # not in baseline
        failures, warnings = compare_ratio_tables(ref, cur, 0.30)
        assert failures == []
        assert len(warnings) == 1
        assert "pfrontier" in warnings[0]
        assert "absent from baseline" in warnings[0]

    def test_removed_variant_warns_not_keyerror(self):
        ref = {"vec": 1.0, "frontier": 0.3, "lazy": 9.0}  # stale baseline entry
        cur = {"vec": 1.0, "frontier": 0.3}
        failures, warnings = compare_ratio_tables(ref, cur, 0.30)
        assert failures == []
        assert len(warnings) == 1
        assert "lazy" in warnings[0]
        assert "not measured" in warnings[0]

    def test_asymmetry_does_not_mask_real_regression(self):
        ref = {"frontier": 0.30, "lazy": 9.0}
        cur = {"frontier": 0.60, "pfrontier": 2.5}
        failures, warnings = compare_ratio_tables(ref, cur, 0.30)
        assert len(failures) == 1 and "frontier" in failures[0]
        assert len(warnings) == 2

    def test_vec_yardstick_is_skipped(self):
        # vec is the normalisation unit: always 1.0 vs itself, never judged
        ref = {"vec": 1.0}
        cur = {"vec": 5.0}
        failures, warnings = compare_ratio_tables(ref, cur, 0.0)
        assert failures == [] and warnings == []

    def test_failures_name_the_section(self):
        failures, _ = compare_ratio_tables({"a": 1.0}, {"a": 2.0}, 0.1, section="fixpoint")
        assert failures[0].startswith("fixpoint/a:")


class TestTiledCeiling:
    def test_only_tiled_variants_over_the_ceiling_fail(self):
        ratios = {"vec": 1.0, "frontier": 1.9, "tiled": 1.1, "lazy": 1.6, "split": 1.5}
        failures = bench.tiled_ceiling_failures(ratios)
        assert len(failures) == 1
        # the name parses back out the way the re-measure pass reads it
        assert failures[0].split("/", 1)[1].split(":", 1)[0] == "lazy"

    def test_missing_variant_is_not_a_failure(self):
        assert bench.tiled_ceiling_failures({"vec": 1.0, "tiled": 1.2}) == []
