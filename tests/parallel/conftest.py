"""Shared fixtures for the parallel tests."""

import pytest

from repro.parallel import AttachUniverse
from repro.parallel.sessions import SessionWorkerHandle


@pytest.fixture()
def attach_log(monkeypatch):
    """Every AttachUniverse any session worker is sent, in order."""
    sent = []
    original = SessionWorkerHandle.send

    def send(handle, message):
        if isinstance(message, AttachUniverse):
            sent.append(message)
        return original(handle, message)

    monkeypatch.setattr(SessionWorkerHandle, "send", send)
    return sent
