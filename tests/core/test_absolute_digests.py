"""Absolute golden digests: the op stream pinned to checked-in SHA-256s.

Every other golden test is *relative* (one backend against another,
observed against unobserved, resumed against clean), so a change that
moves every path together passes all of them.  This module pins each
cell of the grid

    scenario × {plain, arrivals} × {nfs DES, fast-columnar}
             × {full run, time limit at 1/3 of the full duration}

to the SHA-256 of its canonical op stream (the executed records as
:class:`~repro.core.opbatch.OpBatch` columns, timing included, plus the
session records) and of its fleet tally ``as_kv``.  ``fast-columnar``
cells also pin the bytes of the ``.opstream`` artifact.  The values live
in ``tests/golden/digests.json``.

A deliberate change to the generated workload must rewrite that file::

    REPRO_REGEN_DIGESTS=1 PYTHONPATH=src python tests/core/test_absolute_digests.py

which prints every key whose digest changed.  Without the variable the
script only reports the changed keys (exit status 1 if any).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from repro.core import OpBatch
from repro.fleet import FleetConfig, run_fleet
from repro.scenarios import scenario_names

DIGESTS_PATH = Path(__file__).resolve().parents[1] / "golden" / "digests.json"
REGEN_ENV = "REPRO_REGEN_DIGESTS"

USERS = 3
SESSIONS = 2
FILES = 120
SEED = 23
BACKENDS = ("nfs", "fast-columnar")
MODES = ("plain", "arrivals")

_COLUMNS = ("kinds", "plan_ids", "sizes", "flags", "path_idx",
            "category_idx", "user_ids", "session_ids", "user_type_idx",
            "start_us", "response_us")


def _sha(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(len(part).to_bytes(8, "little"))
        digest.update(part)
    return digest.hexdigest()


def _strings(values) -> bytes:
    return json.dumps(list(values)).encode()


def op_stream_digest(log) -> str:
    """SHA-256 of the executed op stream: the records as OpBatch columns
    plus their string tables, then every session record."""
    batch = OpBatch.from_records(log.operations)
    parts = []
    for name in _COLUMNS:
        column = getattr(batch, name)
        parts += [name.encode(), column.dtype.str.encode(), column.tobytes()]
    for table in (batch.paths, batch.categories, batch.user_types):
        parts.append(_strings(table.values()))
    for session in log.sessions:
        parts.append(json.dumps([
            session.user_id, session.user_type, session.session_id,
            session.start_us.hex(), session.end_us.hex(),
            session.files_referenced, session.bytes_accessed,
            session.file_bytes_referenced, list(session.categories),
        ]).encode())
    return _sha(parts)


def tally_digest(result) -> str:
    """SHA-256 of the fleet tally's ``as_kv`` (canonical JSON)."""
    return _sha([json.dumps(result.tally.as_kv(), sort_keys=True).encode()])


def _run(name, mode, backend, workdir, time_limit_us=None, tag="full"):
    out_stream = None
    if backend == "fast-columnar":
        out_stream = os.path.join(workdir, f"{tag}.opstream")
    return run_fleet(FleetConfig(
        scenario=name, users=USERS, shards=1, workers=1, seed=SEED,
        sessions_per_user=SESSIONS, total_files=FILES, backend=backend,
        use_arrivals=mode == "arrivals", time_limit_us=time_limit_us,
        collect_ops=True, out_stream=out_stream,
    ))


def cell_digests(name: str, mode: str, backend: str) -> dict[str, str]:
    """Every digest of one (scenario, mode, backend) cell: the full run
    and the run truncated at a third of the full run's duration."""
    out: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as workdir:
        full = _run(name, mode, backend, workdir)
        runs = {
            "full": full,
            "third": _run(name, mode, backend, workdir,
                          time_limit_us=full.simulated_us / 3, tag="third"),
        }
        for cut, result in runs.items():
            key = f"{name}/{mode}/{backend}/{cut}"
            out[f"{key}/ops"] = op_stream_digest(result.log)
            out[f"{key}/tally"] = tally_digest(result)
            if result.out_stream is not None:
                out[f"{key}/artifact"] = _sha(
                    [Path(result.out_stream).read_bytes()])
    return out


def all_digests() -> dict[str, str]:
    out: dict[str, str] = {}
    for name in scenario_names():
        for mode in MODES:
            for backend in BACKENDS:
                out.update(cell_digests(name, mode, backend))
    return dict(sorted(out.items()))


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text())


@pytest.fixture(scope="module")
def pinned():
    return load_digests()


def test_grid_covers_every_scenario(pinned):
    expected = {
        f"{name}/{mode}/{backend}/{cut}"
        for name in scenario_names() for mode in MODES
        for backend in BACKENDS for cut in ("full", "third")
    }
    assert {key.rsplit("/", 1)[0] for key in pinned} == expected


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", scenario_names())
def test_cell_matches_pinned_digests(pinned, name, mode, backend):
    observed = cell_digests(name, mode, backend)
    expected = {key: pinned.get(key) for key in observed}
    assert observed == expected, (
        "op stream moved; if intended, regenerate with "
        f"{REGEN_ENV}=1 python {Path(__file__).name}"
    )


def main() -> int:
    observed = all_digests()
    stored = load_digests() if DIGESTS_PATH.exists() else {}
    changed = sorted(key for key in observed.keys() | stored.keys()
                     if observed.get(key) != stored.get(key))
    for key in changed:
        print(f"changed: {key}")
    if os.environ.get(REGEN_ENV) == "1":
        DIGESTS_PATH.parent.mkdir(parents=True, exist_ok=True)
        DIGESTS_PATH.write_text(json.dumps(observed, indent=1) + "\n")
        print(f"wrote {len(observed)} digests to {DIGESTS_PATH}"
              f" ({len(changed)} changed)")
        return 0
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
