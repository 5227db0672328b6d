"""repro.check.fuzz: seed determinism, lockstep acceptance, CLI."""

import pytest

from repro.check import CHECK
from repro.check.fuzz import (
    DEFAULT_MECHANISMS,
    ScenarioRunner,
    generate_scenario,
    main,
    run_scenario,
)
from repro.ras import RAS


class TestDeterminism:
    def test_same_seed_same_scenario(self):
        assert generate_scenario(7, steps=30) == generate_scenario(7, steps=30)

    def test_different_seeds_differ(self):
        a = generate_scenario(0, steps=30)
        b = generate_scenario(1, steps=30)
        assert a != b

    def test_layouts_agree_across_mechanisms(self):
        runner = ScenarioRunner(generate_scenario(2, steps=5))
        assert len(runner.runs) == len(DEFAULT_MECHANISMS)
        for run in runner.runs[1:]:
            assert run.seg_starts == runner.runs[0].seg_starts


class TestLockstepAcceptance:
    @pytest.mark.slow
    def test_200_plus_steps_all_mechanisms_clean(self, check_enabled):
        """ISSUE acceptance: 200+ fuzzer steps across all three mechanisms
        pass both the oracle and the invariant checker."""
        result = run_scenario(0, steps=70)
        assert result.ok
        assert result.steps >= 200
        assert check_enabled.divergences == 0
        assert check_enabled.violations == 0
        assert check_enabled.oracle_runs > 0
        assert check_enabled.invariant_runs > 0

    def test_short_scenarios_clean(self, check_enabled):
        for seed in (1, 2):
            assert run_scenario(seed, steps=12).ok

    def test_two_mechanism_lockstep(self, check_enabled):
        result = run_scenario(3, steps=10, mechanisms=("cxlfork", "criu-cxl"))
        assert result.ok
        assert result.steps == 20


class TestCli:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["--seed", "5", "--steps", "8"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "clean" in out

    def test_list_mutations(self, capsys):
        assert main(["--list-mutations"]) == 0
        assert "drop-ckpt-cow" in capsys.readouterr().out

    def test_error_leaves_checking_off(self):
        with pytest.raises(ValueError):
            main(["--mechanisms", "nope", "--steps", "2"])
        assert not CHECK.active()
        assert not RAS.active()
