"""Pinned seed-tier corpus behaviour: energy parent selection.

The schedule fingerprints run only 6 campaigns per target, too few for
the seed tier to evolve a child, so they never exercise
:meth:`repro.core.corpus.Corpus._select`. These pins do:

* pmring, 120 campaigns at seed 7 (17 energy selections): the retained
  corpus digests in order, each entry's ``picks`` and ``campaigns``,
  the final branch and alias coverage, and the campaign count.
* FAST-FAIR, seeds 7/13/42 at 60 campaigns each under tight per-seed
  budgets (one execution per interleaving, two guided rounds), which
  push the run through many seed-tier iterations: the summed final
  branch+alias coverage, exactly. Slow tier (~20 s).

Every run is deterministic (seeded Mersenne twister, no wall-clock
decisions), so any drift is an engine behaviour change that has to be
explained and re-pinned deliberately.
"""

import pytest

from repro.core import PMRace, PMRaceConfig, fuzz_parallel
from repro.targets import make_target

#: (digest, picks, campaigns) of every retained pmring seed, in order.
PMRING_CORPUS = [
    ("41777b20dc9f5a90f19ba44a6cf9833a735991ed", 4, 4),
    ("c5af861c2daf45e877ae2139d95e752b17045089", 5, 9),
    ("cd3075cc1661c361ee86da7624456df97e9a420e", 2, 8),
    ("2e18e793b0f6f1512903ce7868aff6543b4b81d0", 2, 8),
    ("3972176c503afc729ec4d59101705b18f9d78b70", 1, 7),
    ("53acbe8d5096a893c017c54b15969f3b6fd93799", 2, 6),
    ("718825e27a7106fa9258e1a38e841ceb08798bfe", 1, 7),
    ("845817d735b0a618ffaf055d844de7ed5cf51ba8", 0, 8),
    ("d08961bff39c483f7454bd361c6de8974fe60a2c", 0, 6),
]
PMRING_CAMPAIGNS = 120
PMRING_BRANCH = 43
PMRING_ALIAS = 90

FASTFAIR_SEEDS = (7, 13, 42)
FASTFAIR_CAMPAIGNS_PER_SEED = 60
FASTFAIR_COVERAGE = 1041


def test_pmring_corpus_fingerprint():
    result = fuzz_parallel("pmring",
                           PMRaceConfig(max_campaigns=PMRING_CAMPAIGNS),
                           seeds=(7,), processes=1, max_retries=0)
    corpus = [(entry["digest"], entry["stats"]["picks"],
               entry["stats"]["campaigns"])
              for entry in result.corpus_seeds]
    assert corpus == PMRING_CORPUS
    assert sum(picks for _, picks, _ in corpus) == 17
    assert result.campaigns == PMRING_CAMPAIGNS
    _campaign, _elapsed, branch, alias = result.coverage_timeline[-1]
    assert (branch, alias) == (PMRING_BRANCH, PMRING_ALIAS)


@pytest.mark.slow
def test_fastfair_energy_coverage():
    coverage = campaigns = 0
    for seed in FASTFAIR_SEEDS:
        config = PMRaceConfig(
            max_campaigns=FASTFAIR_CAMPAIGNS_PER_SEED, base_seed=seed,
            max_seeds=200, execs_per_interleaving=1,
            max_interleavings_per_seed=2, validate=False)
        result = PMRace(make_target("FAST-FAIR"), config).run()
        _campaign, _elapsed, branch, alias = result.coverage_timeline[-1]
        coverage += branch + alias
        campaigns += result.campaigns
    assert campaigns == len(FASTFAIR_SEEDS) * FASTFAIR_CAMPAIGNS_PER_SEED
    assert coverage == FASTFAIR_COVERAGE
