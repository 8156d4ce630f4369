"""Suite-wide guards for the tier-1 tests."""

import logging

import pytest


@pytest.fixture(autouse=True)
def no_logging_errors(monkeypatch):
    """Fail any test during which a logging handler failed to emit.

    ``logging`` reports such failures (a write to a closed stream, a
    formatting error) through ``Handler.handleError``, which only prints
    a ``--- Logging error ---`` block and carries on; this turns it into
    a test failure.
    """
    fired = []
    original = logging.Handler.handleError

    def handle_error(self, record):
        fired.append(f"{record.name}: {record.msg!r}")
        original(self, record)

    monkeypatch.setattr(logging.Handler, "handleError", handle_error)
    yield
    if fired:
        pytest.fail("logging error(s) during the test: "
                    + "; ".join(fired))
