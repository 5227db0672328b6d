"""The seeded mutations: each a switch, detected when armed, silent otherwise."""

import numpy as np
import pytest

from repro import experiments, runtime
from repro.check import CheckFailure
from repro.check import mutation
from repro.check.fuzz import main, run_scenario
from repro.check.mutation import DROP_CKPT_COW, FLIP_FRAME_BYTE
from repro.exceptions import PoisonError
from repro.os.mm.pte import PteFlags
from repro.ras import RAS
from repro.rfork.cxlfork import CxlFork


class TestRegistry:
    def test_known_mutations_listed(self):
        assert "drop-ckpt-cow" in mutation.KNOWN

    def test_inactive_by_default(self):
        assert [m.name for m in mutation.MUTATIONS] == list(mutation.KNOWN)
        for switch in mutation.MUTATIONS:
            assert runtime.SWITCHES[switch.name] is switch
            assert not switch.active()

    def test_cli_arms_each_named_mutation(self, capsys):
        assert main([
            "--seed", "0", "--steps", "40",
            "--mutation", "drop-ckpt-cow", "--mutation", "flip-frame-byte",
        ]) == 1
        out = capsys.readouterr().out
        assert "armed mutations: drop-ckpt-cow, flip-frame-byte\ncheck: " in out
        assert not any(m.active() for m in mutation.MUTATIONS)

    def test_cli_clean_run_says_nothing_was_armed(self, capsys):
        assert main(["--seed", "0", "--steps", "5"]) == 0
        assert "armed mutations: none\ncheck: " in capsys.readouterr().out

    def test_cli_refuses_an_unknown_mutation(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--mutation", "drop-ckpt-cwo"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'drop-ckpt-cwo'" in capsys.readouterr().err

    def test_armed_mutation_reaches_workers(self):
        """A mutation forced in the caller is armed in every worker."""
        config = experiments.load("fig7").Config.quick()
        with FLIP_FRAME_BYTE.force(True), RAS.force(True):
            with pytest.raises(PoisonError):
                experiments.run("fig7", config, jobs=2)


class TestMutationEffect:
    def test_checkpoint_ptes_lose_cow(self, parent):
        _, instance = parent
        with DROP_CKPT_COW.force(True):
            ckpt, _ = CxlFork().checkpoint(instance.task)
        cow = np.int64(int(PteFlags.COW))
        present = np.int64(int(PteFlags.PRESENT))
        for _, leaf in ckpt.pagetable.leaves():
            sel = leaf.ptes[(leaf.ptes & present) != 0]
            if sel.size:
                assert int(np.count_nonzero(sel & cow)) == 0


class TestFlipFrameByteMutation:
    """The RAS seeded bug: post-seal corruption, restore-time detection."""

    def test_listed_in_registry(self):
        assert "flip-frame-byte" in mutation.KNOWN

    def test_checkpoint_frame_poisoned_post_seal(self, pod, parent):
        _, instance = parent
        with FLIP_FRAME_BYTE.force(True):
            ckpt, _ = CxlFork().checkpoint(instance.task)
        pool = pod.fabric.device.frames
        assert int(ckpt.data_frames[0]) in pool.poisoned_in(ckpt.data_frames[:1])

    def test_armed_mutation_detected_by_restore_checksum(self, check_enabled):
        with FLIP_FRAME_BYTE.force(True), pytest.raises(PoisonError):
            run_scenario(0, steps=40)

    def test_cli_exits_nonzero_when_armed(self):
        assert main(["--seed", "0", "--steps", "40", "--mutation", "flip-frame-byte"]) == 1


class TestSmoke:
    def test_armed_mutation_is_detected(self, check_enabled):
        """The differential oracle must flag the dropped COW bit as a lost
        write the first time a child write silently no-ops."""
        with DROP_CKPT_COW.force(True), pytest.raises(CheckFailure) as info:
            run_scenario(0, steps=40)
        assert "lost-write" in str(info.value)

    def test_disarmed_run_is_clean(self, check_enabled):
        assert run_scenario(0, steps=40).ok

    def test_cli_exits_nonzero_when_armed(self):
        assert main(["--seed", "0", "--steps", "40", "--mutation", "drop-ckpt-cow"]) == 1
