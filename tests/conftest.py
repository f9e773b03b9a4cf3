"""Session-scoped Ray fixture — one ray.init per pytest session."""

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    yield
    ray.shutdown()


@pytest.fixture()
def executions(monkeypatch):
    """Counts Ray Data plan executions started on the driver."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    count = [0]
    execute = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        count[0] += 1
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    return count


def _executions_of(executions, run) -> int:
    before = executions[0]
    try:
        run()
    except RuntimeError as e:
        assert "simulated crash" in str(e)
    return executions[0] - before
