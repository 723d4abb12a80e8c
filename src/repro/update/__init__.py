"""Live updates: WAL durability, delta overlays, and compaction.

This package turns the read-only snapshot server into a durable,
writable system while keeping the engine's execution model untouched:

* :mod:`repro.update.faultfs` — the filesystem seam.  Every
  durability-critical syscall the subsystem makes goes through a
  :class:`~repro.update.faultfs.FileSystem`, so the crash-recovery
  property suite can run the *real* code against an in-memory
  filesystem that fails, short-writes, or "crashes" at the Nth
  operation.
* :mod:`repro.update.wal` — the write-ahead log: length+CRC32-framed
  batch records with explicit fsync commit points and torn/corrupt
  tail truncation on replay.
* :mod:`repro.update.overlay` — the per-snapshot delta overlay:
  :func:`~repro.update.overlay.overlay` returns a plain
  :class:`~repro.bitmat.store.BitMatStore` whose pair source merges the
  frozen base with the committed adds/deletes, so the base's BitMats
  are served without being rebuilt.
* :mod:`repro.update.live` — :class:`~repro.update.live.LiveGraphStore`:
  WAL + manifest + base images + overlay publication + the background
  compactor that merges accumulated deltas into a new frozen store and
  swaps it through the copy-on-write snapshot manager.
"""

from .faultfs import (FaultPlan, FaultyFS, FileSystem, MemFS, RealFS,
                      SimulatedCrash)
from .live import LiveConfig, LiveGraphStore
from .overlay import DeltaDictionary, TripleDelta, overlay
from .wal import WalRecord, WriteAheadLog, replay_wal

__all__ = [
    "DeltaDictionary", "FaultPlan", "FaultyFS", "FileSystem",
    "LiveConfig", "LiveGraphStore", "MemFS", "RealFS",
    "SimulatedCrash", "TripleDelta", "WalRecord", "WriteAheadLog",
    "overlay", "replay_wal",
]
