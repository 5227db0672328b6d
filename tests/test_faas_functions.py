"""Function specs (Table 1) and the Fig. 1 aggregate calibration."""

import pytest

from repro.faas.functions import TABLE1, FunctionSpec, function_names, get_function
from repro.sim.units import MIB


class TestTable1:
    def test_ten_functions(self):
        assert len(TABLE1) == 10

    def test_names_match_paper(self):
        assert function_names() == [
            "float", "linpack", "json", "pyaes", "chameleon",
            "html", "cnn", "rnn", "bfs", "bert",
        ]

    def test_footprints_match_paper(self):
        expected = {
            "float": 24, "linpack": 33, "json": 24, "pyaes": 24,
            "chameleon": 27, "html": 256, "cnn": 265, "rnn": 190,
            "bfs": 125, "bert": 630,
        }
        for name, mb in expected.items():
            assert get_function(name).footprint_mb == mb

    def test_lookup_case_insensitive(self):
        assert get_function("Bert").name == "bert"

    def test_unknown_function(self):
        with pytest.raises(KeyError):
            get_function("nosuch")


class TestFig1Aggregates:
    """Fig. 1: Init 72.2%, Read-only 23%, Read/Write 4.8% on average."""

    def test_average_init_fraction(self):
        avg = sum(s.init_frac for s in TABLE1) / len(TABLE1)
        assert avg == pytest.approx(0.722, abs=0.02)

    def test_average_ro_fraction(self):
        avg = sum(s.ro_frac for s in TABLE1) / len(TABLE1)
        assert avg == pytest.approx(0.23, abs=0.02)

    def test_average_rw_fraction(self):
        avg = sum(s.rw_frac for s in TABLE1) / len(TABLE1)
        assert avg == pytest.approx(0.048, abs=0.01)

    def test_fractions_sum_to_one(self):
        for spec in TABLE1:
            assert spec.init_frac + spec.ro_frac + spec.rw_frac == pytest.approx(1.0)

    def test_init_and_ro_dominate(self):
        for spec in TABLE1:
            assert spec.init_frac + spec.ro_frac > 0.85


class TestBehaviouralParams:
    def test_state_init_in_paper_range(self):
        """Fig. 6: state initialization is 250-500 ms."""
        for spec in TABLE1:
            assert 250.0 <= spec.state_init_ms <= 500.0

    def test_only_bfs_bert_exceed_cache(self, touched_bytes):
        """§7.1: only BFS and Bert have working sets beyond the 64 MB L3."""
        from repro.os.mm.cache import CacheModel

        cache = CacheModel()
        for spec in TABLE1:
            ws = touched_bytes(spec)
            if spec.name in ("bfs", "bert"):
                assert not cache.fits(ws), spec.name
            else:
                assert cache.fits(ws), spec.name

    def test_hundreds_of_library_vmas(self):
        """§4.2.1: serverless address spaces carry hundreds of VMAs."""
        for spec in TABLE1:
            assert spec.lib_vma_count >= 100

    def test_validation_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            FunctionSpec(
                name="bad", description="", footprint_mb=10,
                init_frac=0.5, ro_frac=0.5, rw_frac=0.5,
                file_frac_of_init=0.3, state_init_ms=250, compute_ms=1,
                reaccess_per_page=1, init_touch_frac=0.1, ro_touch_frac=0.5,
                rw_touch_frac=0.9, lib_vma_count=10, fd_count=4,
            )

    def test_footprint_bytes(self):
        assert get_function("bert").footprint_bytes == 630 * MIB
