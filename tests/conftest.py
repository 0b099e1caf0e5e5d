import os

import pytest

from saddlescape import SCHEDULE_KINDS, ConstantSchedule, ScheduleError


class LateFailingSchedule(ConstantSchedule, spec="late-failing:B"):
    """Constant momentum whose second window raises, as a schedule that leaves [0, 1] late would."""

    def _windows(self, count):
        windows = super()._windows(count)
        yield next(windows)
        raise ScheduleError("the second window failed")


# Defining a subclass registers it; only the tests that ask for it see it.
del SCHEDULE_KINDS[LateFailingSchedule.kind]


@pytest.fixture
def late_failing_schedule(monkeypatch):
    """:class:`LateFailingSchedule`, registered under its kind for one test, so the CLI can parse it."""
    monkeypatch.setitem(SCHEDULE_KINDS, LateFailingSchedule.kind, LateFailingSchedule)
    return LateFailingSchedule


@pytest.fixture
def assert_no_child():
    """A check that this process has no child left, running or unreaped."""

    def check():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    return check
