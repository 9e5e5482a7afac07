"""Campaign harness: the Figure-1 pipeline end to end."""

from .campaign import (
    CampaignResult,
    SingleTestResult,
    differential_test_single,
)
from .session import CampaignSession
from .report import (
    render_campaign_summary,
    render_counters_table,
    render_feature_frequencies,
    render_table1,
    render_versions_table,
)
from .results import dump_campaign_artifacts, read_verdict_rows, write_verdicts

__all__ = [
    "CampaignResult",
    "CampaignSession",
    "SingleTestResult",
    "differential_test_single",
    "dump_campaign_artifacts",
    "read_verdict_rows",
    "render_campaign_summary",
    "render_counters_table",
    "render_feature_frequencies",
    "render_table1",
    "render_versions_table",
    "write_verdicts",
]
