"""Tests for the scenario matrix (cheap: no harness runs)."""

import pytest

from repro.chaos import KINDS, SUBSTRATES, Scenario, default_campaign
from repro.chaos.scenarios import POOL_KINDS
from repro.common.errors import ConfigurationError


class TestScenario:
    def test_name(self):
        sc = Scenario(substrate="simmpi", kind="kill-resume", seed=7)
        assert sc.name == "simmpi/kill-resume@seed=7"

    def test_unknown_substrate_rejected(self):
        with pytest.raises(ConfigurationError, match="substrate"):
            Scenario(substrate="slurm", kind="kill-resume")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="kind"):
            Scenario(substrate="easypap", kind="cosmic-ray")


class TestDefaultCampaign:
    def test_covers_all_substrates_and_kinds(self):
        scs = default_campaign()
        assert {sc.substrate for sc in scs} == set(SUBSTRATES)
        assert {sc.kind for sc in scs} == KINDS
        assert len(scs) == 20

    def test_kill_resume_everywhere(self):
        # the headline invariant applies to every substrate
        subs = {sc.substrate for sc in default_campaign(kinds=("kill-resume",))}
        assert subs == set(SUBSTRATES)

    def test_seed_fanout(self):
        scs = default_campaign(substrates=("simmpi",), seeds=(1, 2, 3))
        assert len(scs) == 9
        assert {sc.seed for sc in scs} == {1, 2, 3}

    def test_filters(self):
        scs = default_campaign(substrates=("mapreduce",), kinds=("inject-raise",))
        assert [(sc.substrate, sc.kind) for sc in scs] == [("mapreduce", "inject-raise")]

    def test_empty_filter_is_an_error(self):
        with pytest.raises(ConfigurationError, match="no scenarios"):
            default_campaign(substrates=("wrench",), kinds=("deadline",))

    def test_only_easypap_faults_need_processes(self):
        needy = {(sc.substrate, sc.kind) for sc in default_campaign() if sc.requires_processes}
        assert needy == {
            ("easypap", "inject-raise"), ("easypap", "worker-kill"), ("easypap", "region-kill"),
        } | {("easypap", kind) for kind in POOL_KINDS}
