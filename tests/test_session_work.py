"""Exact path-normalisation count over one nym session, at a fixed seed.

Every page a nym loads lands in its tmpfs as ~1 MiB cache files, so the
union mount's per-call cost is most of a session's file-system time.  A
path is canonicalised once, where it enters a ``UnionMount`` or a bare
``Layer``, and handed through the layers already canonical.  A second
normalisation moves no journal byte, so only counting the calls shows
it; this test counts them through ``monkeypatch`` wrappers and pins the
number, in the manner of ``tests/test_launch_work.py``.
"""

import pytest

import repro.unionfs.layer as layer_module
import repro.unionfs.mount as mount_module
from repro.api import NymixSession
from repro.guest.websites import FIGURE3_VISIT_ORDER
from repro.runtime import reset_process_caches


@pytest.fixture(autouse=True)
def _fresh_process_caches():
    reset_process_caches()
    yield
    reset_process_caches()


def test_a_session_normalises_each_path_once(monkeypatch):
    """Create a nym, load the eight Figure 3 sites, discard it."""
    with NymixSession(seed=201) as session:
        calls = []
        real = layer_module.normalize_path

        def counted(path):
            calls.append(path)
            return real(path)

        for module in (layer_module, mount_module):
            monkeypatch.setattr(module, "normalize_path", counted)
        nymbox = session.create_nym()
        for site in FIGURE3_VISIT_ORDER:
            session.timed_browse(nymbox, site)
        session.discard_nym(nymbox)
    # One per public call: 91 cache, 8 cookie-jar and 8 history writes,
    # 6 evictions (exists, then remove), 3 profile probes (exists) and
    # the 7 files of the AnonVM and CommVM config layers.
    assert len(calls) == 129
