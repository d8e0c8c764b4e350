"""Concurrent writers of one on-disk path: nobody raises, nothing tears.

The service writes cache entries, campaign manifests and ledgers from
worker threads, and a CLI sweep may share its cache from another
process.  Every one of those writers must survive racing the others on
the *same* path, and a reader polling that path must only ever see a
complete JSON document.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
from pathlib import Path

from repro.analysis.points import SweepPoint
from repro.obs.manifest import RunManifest, load_manifest, write_manifest
from repro.runner import ResultCache
from repro.runner.campaign import (
    SweepManifest,
    campaign_ledger_path,
    finish_campaign,
    load_campaign,
    load_ledger,
    record_ledger,
    sweep_manifest_path,
)

KEY = "ab" * 32
CAMPAIGN = "cd" * 32
THREADS = 4
PROCESSES = 2
WRITES = 40
#: Large enough that one write spans several syscalls, so an unsafe
#: writer is caught mid-write by the others and by the reader.
PAD = "x" * 65_536


def _point(writer: int, round_index: int) -> SweepPoint:
    return SweepPoint(offered_gross=float(writer),
                      gross_utilization=float(round_index),
                      net_utilization=0.5, mean_response=1.0,
                      ci_half_width=0.0, saturated=False)


def _write_all(root: Path, writer: int) -> None:
    """One writer: every persistent artifact, ``WRITES`` times over."""
    cache = ResultCache(root / "cache")
    campaign = SweepManifest(campaign=CAMPAIGN, kind="sweep", label=PAD,
                             task_keys=(KEY,), descriptions=(PAD,))
    run = RunManifest(key=KEY, description=PAD, config_hash="0" * 64,
                      seed=writer, policy="GS", cache_status="stored")
    for round_index in range(WRITES):
        cache.store(KEY, _point(writer, round_index), PAD)
        record_ledger(cache, CAMPAIGN, {"writer": writer, "pad": PAD})
        finish_campaign(campaign, cache, round_index)
        write_manifest(run, root / "obs" / "run.json")


def _process_writer(root: str, writer: int, start) -> None:
    start.wait()
    _write_all(Path(root), writer)


def _targets(root: Path) -> list[Path]:
    cache = ResultCache(root / "cache")
    return [cache.path_for(KEY), campaign_ledger_path(cache.root, CAMPAIGN),
            sweep_manifest_path(cache.root, CAMPAIGN),
            root / "obs" / "run.json"]


def test_threads_and_processes_writing_one_key(tmp_path):
    context = multiprocessing.get_context("fork")
    start = context.Event()
    # Fork before any thread exists in this process.
    processes = [
        context.Process(target=_process_writer,
                        args=(str(tmp_path), writer, start))
        for writer in range(THREADS, THREADS + PROCESSES)
    ]
    for process in processes:
        process.start()

    errors: list[BaseException] = []
    torn: list[str] = []
    done = threading.Event()

    def thread_writer(writer: int) -> None:
        start.wait()
        try:
            _write_all(tmp_path, writer)
        except Exception as exc:
            errors.append(exc)

    def reader() -> None:
        start.wait()
        while not done.is_set():
            for path in _targets(tmp_path):
                try:
                    text = path.read_text(encoding="utf-8")
                except FileNotFoundError:
                    continue
                try:
                    json.loads(text)
                except ValueError:
                    torn.append(f"{path.name}: {len(text)} bytes")

    threads = [threading.Thread(target=thread_writer, args=(writer,))
               for writer in range(THREADS)]
    watcher = threading.Thread(target=reader)
    for thread in [*threads, watcher]:
        thread.start()
    start.set()
    for thread in threads:
        thread.join()
    for process in processes:
        process.join()
    done.set()
    watcher.join()

    assert errors == []
    assert [process.exitcode for process in processes] == [0] * PROCESSES
    assert torn == []
    # The last rename wins, whole: every artifact reads back.
    cache = ResultCache(tmp_path / "cache")
    assert cache.load(KEY).offered_gross in range(THREADS + PROCESSES)
    assert load_ledger(cache, CAMPAIGN)["pad"] == PAD
    assert load_manifest(tmp_path / "obs" / "run.json").key == KEY
    assert load_campaign(cache, CAMPAIGN).status == "complete"
    # No staging file survives its writer.
    leftovers = [path.name for path in tmp_path.rglob("*")
                 if path.is_file() and path not in _targets(tmp_path)]
    assert leftovers == []


def test_staging_names_match_no_scan(tmp_path, monkeypatch):
    """Staging files are invisible to the ``*.json`` directory scans."""
    staged: list[str] = []
    real_replace = os.replace

    def spy(src, dst):
        staged.append(Path(src).name)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", spy)
    _write_all(tmp_path, 0)
    assert len(staged) == 4 * WRITES
    assert not [name for name in staged if name.endswith(".json")]
