"""``repro.service`` reads HTTP with its own front end, not ``http.server``.

The dispatch service answers HTTP through a small ``socketserver`` handler
(``repro.service.server._ServiceHandler``).  ``http.server``'s per-request
machinery held the GIL the match loop needs for long enough to cap the
service's HTTP throughput, so it must not come back as a second stack: a
fresh interpreter that imports ``repro.service`` must not have loaded it.
The check has a negative test on a planted import in a copy of the package.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[2] / "src"
_PROBE = "import sys, repro.service; print('http.server' in sys.modules)"


def _loads_http_server(src: Path) -> bool:
    """Whether importing ``repro.service`` from ``src`` loads ``http.server``."""
    result = subprocess.run(
        [sys.executable, "-B", "-c", _PROBE],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout.strip() == "True"


def test_importing_the_service_does_not_load_http_server():
    assert not _loads_http_server(_SRC)


def test_a_planted_http_server_import_is_found(tmp_path):
    shutil.copytree(
        _SRC / "repro",
        tmp_path / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    server = tmp_path / "repro" / "service" / "server.py"
    source = server.read_text()
    anchor = "from __future__ import annotations\n"
    assert anchor in source
    server.write_text(source.replace(anchor, anchor + "\nimport http.server\n", 1))
    assert _loads_http_server(tmp_path)
