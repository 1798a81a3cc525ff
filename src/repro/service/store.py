"""Persistent result store with in-memory fallback.

The in-process caches of :mod:`repro.core.cache` die with the process;
this module extends their fingerprint keys to an on-disk sqlite store so
warm compilation results survive restarts.  Payloads are JSON text.
The compiled axiom corpus is not stored: it is a pure function of the
version, registry and target, and compiles in ~15 ms per target, so
each process builds it (see ``CompilationEngine``).  Files written by
older versions may still hold a ``corpora`` table; it is never read.

A store created with ``path=None`` keeps everything in a dict: same
interface, process lifetime only.  All methods are thread-safe; only the
engine process touches the store (workers return results over the pool's
queues), so no cross-process locking is needed beyond sqlite's own.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from typing import Any, Dict, Optional

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    fingerprint TEXT PRIMARY KEY,
    payload     TEXT NOT NULL,
    created_at  REAL NOT NULL,
    hits        INTEGER NOT NULL DEFAULT 0
);
"""
# ``hits`` is never updated (a hit must not write); the column stays
# so files written by older versions open unchanged.


class StoreStats:
    """Hit/miss/write counters of one store instance."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.writes = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "hit_rate": round(self.hit_rate, 4),
        }


class ResultStore:
    """Fingerprint-keyed store of finished compilation results.

    Args:
        path: sqlite database file (created if missing), or ``None`` for
            an ephemeral in-memory store.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        self.stats = StoreStats()
        self._lock = threading.Lock()
        self._mem: Optional[Dict[str, str]] = None
        self._db: Optional[sqlite3.Connection] = None
        if path is None:
            self._mem = {}
        else:
            # One shared connection, serialized by our lock (handlers may
            # call from several server threads).
            self._db = sqlite3.connect(path, check_same_thread=False)
            # WAL lets node-local readers (metrics, fabric soak load)
            # proceed during writes instead of hitting "database is
            # locked"; busy_timeout covers the rest.  Some filesystems
            # refuse WAL — fall back to the default journal.
            try:
                self._db.execute("PRAGMA busy_timeout = 5000")
                self._db.execute("PRAGMA journal_mode = WAL")
                self._db.execute("PRAGMA synchronous = NORMAL")
            except sqlite3.Error:
                pass
            self._db.executescript(_SCHEMA)
            self._db.commit()

    # -- results -----------------------------------------------------------

    def get(self, fingerprint: str) -> Optional[dict]:
        """The stored payload for ``fingerprint``, or None (counted)."""
        text = self.get_text(fingerprint)
        return None if text is None else json.loads(text)

    def get_text(self, fingerprint: str) -> Optional[str]:
        """The stored payload's JSON text, or None (counted).

        The in-memory store answers with the very ``str`` that
        :meth:`put` wrote, so a caller keeping it holds no copy.  A hit
        writes nothing: the front end looks up submits on its event loop.
        """
        with self._lock:
            if self._mem is not None:
                text = self._mem.get(fingerprint)
            else:
                row = self._db.execute(
                    "SELECT payload FROM results WHERE fingerprint = ?",
                    (fingerprint,),
                ).fetchone()
                text = row[0] if row else None
            if text is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
            return text

    def put(self, fingerprint: str, payload: dict) -> str:
        """Store ``payload``; returns the JSON text written."""
        text = json.dumps(payload, sort_keys=True)
        with self._lock:
            self.stats.writes += 1
            if self._mem is not None:
                self._mem[fingerprint] = text
                return text
            self._db.execute(
                "INSERT OR REPLACE INTO results "
                "(fingerprint, payload, created_at, hits) VALUES (?, ?, ?, 0)",
                (fingerprint, text, time.time()),
            )
            self._db.commit()
        return text

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            if self._mem is not None:
                return fingerprint in self._mem
            row = self._db.execute(
                "SELECT 1 FROM results WHERE fingerprint = ?", (fingerprint,)
            ).fetchone()
            return row is not None

    def __len__(self) -> int:
        with self._lock:
            if self._mem is not None:
                return len(self._mem)
            return self._db.execute("SELECT COUNT(*) FROM results").fetchone()[0]

    # -- lifecycle ---------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        out = self.stats.to_dict()
        out["entries"] = len(self)
        out["path"] = self.path
        return out

    def close(self) -> None:
        with self._lock:
            if self._db is not None:
                self._db.close()
                self._db = None
