import contextlib

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long end-to-end test (deselect with -m 'not slow')")


@contextlib.contextmanager
def staged_plan():
    """Force the staged build plan (both flush row gates below any
    input) with small analyze and segment batches (many segments per
    merge).  The staged plan is the reference the flush plan is checked
    against, and the only plan with per-stage and per-group resume."""
    from alix_ray.stages import smallbuild
    from alix_ray.stages.build import IndexBuilder

    with pytest.MonkeyPatch.context() as m:
        m.setattr(smallbuild, "SMALL_BUILD_MAX_ROWS", 0)
        m.setattr(smallbuild, "SMALL_COMPACT_MAX_ROWS", -1)
        m.setattr(IndexBuilder, "SEGMENT_BATCH_SIZE", 64)
        m.setattr(IndexBuilder, "ANALYZE_BATCH_SIZE", 64)
        yield


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (driver contract)."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    import ray.data

    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    yield ray
    ray.shutdown()
