"""Seeded inputs: the same seed gives the same schedule and the same block."""

import random

import pytest
import servemix
from fixpoint import (
    GRID_KINDS,
    INPROC_SIZES,
    INPROC_VARIANTS,
    PROCS_SIZES,
    PROCS_VARIANTS,
    FixpointWorkload,
    base_grid,
    make_grid,
)
from stats import MIN_TAIL_SAMPLES, samples_beyond
from yardstick import Speed


def _shape(schedule):
    return [(r.rid, r.due, r.tenant, r.key, r.repeat_of) for r in schedule]


def test_serve_schedule_is_identical_for_a_seed():
    a = servemix.make_schedule(3, seconds=4.0)
    b = servemix.make_schedule(3, seconds=4.0)
    assert _shape(a) == _shape(b)
    assert _shape(a) != _shape(servemix.make_schedule(4, seconds=4.0))


def test_serve_schedule_offers_a_fixed_load_with_fixed_repeats():
    seconds = 4.0
    sched = servemix.make_schedule(11, seconds=seconds)
    assert len(sched) == round(servemix.RATE * seconds)
    dues = [r.due for r in sched]
    assert dues == sorted(dues) and 0.0 <= dues[0] and dues[-1] <= seconds
    repeats = [r for r in sched if r.repeat_of is not None]
    assert len(repeats) == round(len(sched) * servemix.REPEAT_SHARE)
    by_rid = {r.rid: r for r in sched}
    for r in repeats:
        orig = by_rid[r.repeat_of]
        assert orig.repeat_of is None and orig.key == r.key
        assert r.due - orig.due >= servemix.REPEAT_GAP_S
    fresh = [r.key for r in sched if r.repeat_of is None]
    assert len(fresh) == len(set(fresh))
    assert {r.spec.substrate for r in sched} == {"easypap", "mapreduce", "simmpi", "wrench"}


def test_utilisation_counts_worker_time_of_jobs_that_ran():
    recs = [servemix.Served(r) for r in servemix.make_schedule(1, seconds=1.0)[:4]]
    recs[0].admitted_at, recs[0].finished_at = 0.0, 0.5
    recs[1].admitted_at, recs[1].finished_at = 0.2, 0.3
    recs[2].cached = True  # a hit runs on no worker
    recs[2].admitted_at = recs[2].finished_at = 0.4
    run = servemix.ServeRun(0.0, recs, wall=1.0)  # recs[3] was never admitted
    assert servemix.utilisation(run) == pytest.approx(0.6 / servemix.WORKERS)


def test_fixpoint_grids_are_seeded_symmetries_of_one_base():
    for kind in GRID_KINDS:
        a = make_grid(kind, 12, random.Random(5))
        assert a == make_grid(kind, 12, random.Random(5))
    busy = {make_grid("busy", 12, random.Random(s)).interior.tobytes() for s in range(40)}
    assert len(busy) == 8
    base = base_grid("busy", 12)
    for s in range(8):
        g = make_grid("busy", 12, random.Random(s))
        assert g.total_grains() == base.total_grains()
        assert sorted(g.interior.ravel()) == sorted(base.interior.ravel())


def test_fixpoint_block_is_identical_for_a_seed():
    def block(seed):
        wl = FixpointWorkload(INPROC_VARIANTS[:1], INPROC_SIZES[:2], seed, Speed())
        wl.setup()
        return wl.block

    assert block(2) == block(2)
    assert sorted(block(2)) == sorted(block(3))
    assert len(block(2)) == len(GRID_KINDS) * 2


def test_every_block_has_ten_jobs_beyond_p90():
    blocks = (
        len(INPROC_VARIANTS) * len(GRID_KINDS) * len(INPROC_SIZES),
        len(PROCS_VARIANTS) * len(GRID_KINDS) * len(PROCS_SIZES),
        round(servemix.RATE * servemix.BLOCK_SECONDS),
    )
    for n in blocks:
        assert samples_beyond(n, 0.9) >= MIN_TAIL_SAMPLES
