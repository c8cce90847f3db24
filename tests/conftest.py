import contextlib
import os
import signal
import subprocess
import sys

import pytest

_TWO_CPU_PRELUDE = """
import sys

import ray

ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
import ray.data

ray.data.DataContext.get_current().enable_progress_bars = False
sf_dir = sys.argv[1]
"""


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


def posting_rows(ix, term: str) -> int:
    """Stored posting rows of ``term`` in ``ix`` (one per doc-range
    shard per generation), counted in the postings directory."""
    lo, hi = ix.postings._run(ix.lexicon.index(term))
    return hi - lo


def run_at_two_cpus(body: str, sf_dir, what: str,
                    timeout: float = 240) -> str:
    """Run ``body`` (``sf_dir`` bound to the given dir) in its own
    process and 2-CPU Ray instance, under a timeout, and return its
    stdout; fail with ``what`` when it makes no progress.  The shared
    test session has 4 CPUs, which hides pools that hold every CPU
    their feeding tasks need."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p))
    # own session: a timed-out run is killed with the Ray processes it
    # started
    proc = subprocess.Popen(
        [sys.executable, "-c", _TWO_CPU_PRELUDE + body + "\nray.shutdown()\n",
         str(sf_dir)],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"{what} made no progress under num_cpus=2")
    assert proc.returncode == 0, stderr[-3000:]
    return stdout


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
