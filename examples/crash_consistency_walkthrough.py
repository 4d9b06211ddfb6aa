#!/usr/bin/env python3
"""Anatomy of a PM Inter-thread Inconsistency, step by step (Figures 1-3).

Reconstructs the paper's Figure 2/3 scenario on the FAST-FAIR B+-tree
with a *scripted* interleaving instead of fuzzing:

1. thread-1 splits a leaf and stores the sibling pointer without an
   immediate flush (btree.h:560's analog);
2. thread-2 moves right through the dirty pointer and inserts its key
   into the sibling — a durable side effect based on non-persisted data;
3. a crash image taken at that moment loses the sibling pointer but keeps
   the inserted item: the item is unreachable after recovery (data loss).

The same run shows the checker's records and the post-failure verdict.
"""

from repro import PMRaceConfig, Verdict, make_target
from repro.core import SharedAccessEntry, run_campaign
from repro.detect import PostFailureValidator, Whitelist
from repro.instrument.callsite import CallSiteTable
from repro.runtime import SeededRandomPolicy
from repro.targets.fastfair import N_SIBLING


def main():
    target = make_target("FAST-FAIR")
    state = target.setup()

    # Thread 1 fills one leaf and splits it; thread 2 inserts a key that
    # belongs in the sibling. The sync-point entry stalls thread-2's
    # sibling-pointer read until thread-1's split stores it.
    filler = [{"op": "put", "key": k, "value": k} for k in range(8)]
    splitter = [{"op": "put", "key": 8, "value": 8}]
    chaser = [{"op": "put", "key": 9, "value": 99}]

    # One call-site table shared by every campaign: the profiler keys
    # sites by interned int id, and the guided passes must see the same
    # ids the profiling pass recorded. table.name(id) resolves an id
    # back to its module:function:line string.
    table = CallSiteTable()

    # profiling pass: discover the shared sibling-pointer access sites
    config = PMRaceConfig()
    profile = run_campaign(target, state, [filler + splitter, chaser],
                           SeededRandomPolicy(1), config, callsites=table)
    sibling_groups = [
        (addr, info) for addr, info in profile.profiler.profile.items()
        if all("_split_leaf" in table.name(site) for site in info["stores"])
        and any("_move_right" in table.name(site) for site in info["loads"])
    ]
    print("profiling found %d sibling-pointer access group(s)"
          % len(sibling_groups))
    addr, info = sibling_groups[0]
    entry = SharedAccessEntry(addr, frozenset(info["loads"]),
                              frozenset(info["stores"]), info["count"])

    # guided passes on fresh pools: drive thread-2 into the dirty window
    import random
    inter = []
    for seed in range(1, 12):
        state = target.setup()
        result = run_campaign(target, state, [filler + splitter, chaser],
                              SeededRandomPolicy(seed), config, entry=entry,
                              rng=random.Random(seed), callsites=table)
        inter = [r for r in result.checker.inter_inconsistencies
                 if "_split_leaf" in r.write_instr]
        if inter:
            print("schedule seed %d hit the window (outcome: %s)"
                  % (seed, result.outcome.status))
            break
    for candidate in result.checker.inter_candidates:
        print("candidate: %s read non-persisted data written at %s"
              % (candidate.read_instr, candidate.write_instr))
    if not inter:
        print("interleaving not hit; the fuzzer's exploration tiers "
              "exist precisely to search these schedules at scale")
        return
    record = inter[0]
    print("confirmed inconsistency: durable side effect at %s (%s flow)"
          % (record.side_effect_instr,
             "address" if record.address_flow else "content"))

    # post-failure validation: FAST-FAIR's lazy recovery does not repair
    # it, so the verdict is BUG — the paper's bug 8.
    validator = PostFailureValidator(lambda: make_target("FAST-FAIR"),
                                     Whitelist())
    verdict = validator.validate(record)
    print("post-failure verdict: %s (%s)" % (verdict.value, record.note
                                             or "not repaired by recovery"))
    assert verdict is Verdict.BUG


if __name__ == "__main__":
    main()
