import multiprocessing.pool
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture
def pools_made(monkeypatch):
    """A list that gets one item per ``multiprocessing.pool.Pool`` made."""
    made = []
    init = multiprocessing.pool.Pool.__init__

    def counting_init(self, *args, **kwargs):
        made.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.pool.Pool, "__init__", counting_init)
    return made
