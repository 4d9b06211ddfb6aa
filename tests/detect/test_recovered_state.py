"""Cached replays keep the recovered state as a line delta.

:meth:`PostFailureValidator.replay` drops the replay pool and target and
returns the pool's volatile view after recovery as a
:class:`~repro.pmem.memory.CrashImage` over the input image's base. Its
bytes must equal the recovered pool exactly, and the digest cache must
hold no pool at all.
"""

import gc
import random
import types

import pytest

from repro.core.engine import PMRace, PMRaceConfig
from repro.detect import PostFailureValidator
from repro.instrument import InstrumentationContext, PmView
from repro.pmem import CrashImage, PmemPool
from repro.runtime.policies import RoundRobinPolicy
from repro.runtime.scheduler import Scheduler
from repro.targets import make_target, target_names
from repro.targets.base import Target


def recovered_with_full_copies(target_cls, image):
    """The volatile view after recovery on a pool built the old way:
    zero-filled views, then the full image copied into each."""
    data = bytes(image)
    pool = PmemPool("reference", len(data))
    pool.memory._volatile[:] = data
    pool.memory._persisted[:] = data
    target_cls().recover(pool, PmView(pool, None,
                                      InstrumentationContext()))
    return bytes(pool.memory._volatile)


def crash_images(name):
    """Images of a short fuzzing run's records, plus one taken after a
    batch of random operations on a checkpointed setup."""
    target = make_target(name)
    result = PMRace(target, PMRaceConfig(max_campaigns=6, base_seed=7,
                                         validate=False)).run()
    images = [record.crash_image for record in
              list(result.inconsistencies)
              + list(result.sync_inconsistencies)
              if record.crash_image is not None][:6]
    state = target.setup()
    state.snapshot()
    # A seeded bug may leak a lock and hang the batch; the pool it left
    # behind is just as good an image.
    scheduler = Scheduler(RoundRobinPolicy(), max_steps=20_000,
                          spin_hang_limit=200)
    view = PmView(state.pool, scheduler, InstrumentationContext())
    instance = target.open(state, view, scheduler)
    space = target.operation_space()
    rng = random.Random(7)

    def batch():
        for _op in range(20):
            target.exec_op(instance, view, space.random_op(rng))

    scheduler.spawn(batch, "batch")
    assert scheduler.run().status != "error"
    images.append(state.pool.crash_image())
    return images


RECOVERING = [name for name in target_names()
              if type(make_target(name)).recover is not Target.recover]


@pytest.mark.parametrize("name", RECOVERING)
def test_recovered_bytes_equal_recovered_pool(name):
    target_cls = type(make_target(name))
    validator = PostFailureValidator(target_cls)
    for image in crash_images(name):
        replay = validator.replay(image)
        assert replay.ok, replay.error
        assert isinstance(replay.recovered, CrashImage)
        assert replay.recovered.base is image.base
        assert bytes(replay.recovered) == \
            recovered_with_full_copies(target_cls, image)


def reachable(root):
    """Every object reachable from ``root`` through instance data (types,
    modules and functions are not followed)."""
    seen = {id(root): root}
    stack = [root]
    while stack:
        for child in gc.get_referents(stack.pop()):
            if isinstance(child, (type, types.ModuleType,
                                  types.FunctionType)):
                continue
            if id(child) not in seen:
                seen[id(child)] = child
                stack.append(child)
    return seen.values()


def test_pclht_cache_holds_deltas_and_no_pool():
    engine = PMRace(make_target("P-CLHT"),
                    PMRaceConfig(max_campaigns=10, base_seed=7))
    engine.run()
    cache = engine.validation._cache
    assert cache
    for replay in cache.values():
        lines = len(replay.recovered) // 64
        assert lines == 16384
        assert len(replay.recovered.delta) < lines // 64
    assert not any(isinstance(obj, PmemPool) for obj in reachable(cache))
