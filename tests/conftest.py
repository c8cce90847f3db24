import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long end-to-end test (deselect with -m 'not slow')")


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
