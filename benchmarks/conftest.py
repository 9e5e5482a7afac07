"""Shared fixtures for the per-table/per-figure benchmarks.

The campaign and case studies are expensive; they are computed once per
session and shared by every bench that regenerates a table or figure.

Sizing: by default the Table-I campaign runs a 60-program grid (~1/3 of
the paper's 200) so the whole bench suite finishes in a few minutes.  Set
``REPRO_BENCH_FULL=1`` to run the paper's full 200 x 3 x 3 = 1,800-run
grid; EXPERIMENTS.md records the full-grid numbers.
"""

from __future__ import annotations

import os

import pytest

from repro.config import CampaignConfig
from repro.harness.casestudies import case_study_1, case_study_2, case_study_3
from repro.harness.session import CampaignSession

FULL = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")

#: the seed every reported number in EXPERIMENTS.md uses
PAPER_SEED = 20240915


@pytest.fixture(scope="session")
def campaign_cfg() -> CampaignConfig:
    return CampaignConfig(n_programs=200 if FULL else 60,
                          inputs_per_program=3, seed=PAPER_SEED)


@pytest.fixture(scope="session")
def campaign_result(campaign_cfg):
    return CampaignSession(campaign_cfg).run()


@pytest.fixture(scope="session")
def paper_cfg() -> CampaignConfig:
    """Full-fidelity config for case-study searches (always paper-sized)."""
    return CampaignConfig(seed=PAPER_SEED)


@pytest.fixture(scope="session")
def case1(paper_cfg):
    return case_study_1(paper_cfg)


@pytest.fixture(scope="session")
def case2(paper_cfg):
    return case_study_2(paper_cfg)


@pytest.fixture(scope="session")
def case3(paper_cfg):
    return case_study_3(paper_cfg)
