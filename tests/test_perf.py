"""The analysis-cache switch in :mod:`repro.perf`."""

from repro import perf


class TestCacheSwitch:
    def test_default_enabled(self):
        assert perf.caching_enabled()

    def test_context_manager_restores(self):
        with perf.caching_disabled():
            assert not perf.caching_enabled()
            with perf.caching_disabled():
                assert not perf.caching_enabled()
            assert not perf.caching_enabled()
        assert perf.caching_enabled()
