"""Content-addressed on-disk cache for seeded experiment results.

Every figure/report run is a pure function of (experiment name, the full
parameter/seed/repetition fingerprint, the package version, and the
package source itself) — simulations are deterministic per seed, so a
recomputation with an identical fingerprint must produce byte-identical
output.  The cache exploits that: keys are SHA-256 digests of a canonical
JSON encoding of the fingerprint, values are small JSON envelopes stored
one-per-file under the cache root.

Invalidation rules (any of these changes the key, so stale entries are
simply never read again):

* any experiment parameter, base seed, or the activated config's
  repetition policy (``RunConfig.reps_policy``);
* the package version;
* any ``.py`` source file inside the ``repro`` package (a source
  fingerprint is folded into every key, so editing the simulator never
  serves stale results).

Location and toggle come from the activated :class:`repro.api.RunConfig`
(``cache_dir``, else ``~/.cache/repro-ipps09``; ``cache``).  The CLI
maps ``REPRO_CACHE_DIR`` / ``REPRO_CACHE`` onto it; ``repro cache
stats|clear`` inspect and empty the store.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pathlib
from typing import Any, Dict, Mapping, Optional

from repro import __version__
from repro.faults import FAULTS
from repro.obs.metrics import METRICS

log = logging.getLogger("repro.cache")

_source_fingerprint: Optional[str] = None


def cache_enabled(default: bool = False) -> bool:
    """The activated :class:`repro.api.RunConfig`'s cache toggle
    (unset -> ``default``)."""
    from repro import api

    return (api.active_config() or api.RunConfig()).use_cache(default)


def source_fingerprint() -> str:
    """Digest of every ``.py`` file in the repro package (cached).

    Folding this into cache keys makes invalidation automatic across code
    edits: results computed by different source trees never collide.
    """
    global _source_fingerprint
    if _source_fingerprint is None:
        package_root = pathlib.Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(hashlib.sha256(path.read_bytes()).digest())
        _source_fingerprint = digest.hexdigest()[:16]
    return _source_fingerprint


def default_cache_dir() -> pathlib.Path:
    """The activated config's ``cache_dir``, else the per-user default."""
    from repro import api

    config = api.active_config() or api.RunConfig()
    if config.cache_dir:
        return pathlib.Path(config.cache_dir)
    return pathlib.Path(os.path.expanduser("~")) / ".cache" / "repro-ipps09"


class ResultCache:
    """One-file-per-entry JSON store addressed by content fingerprint."""

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = pathlib.Path(root) if root is not None \
            else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.corrupt = 0

    # -- keys -----------------------------------------------------------

    def key(self, experiment: str, params: Mapping[str, Any]) -> str:
        """Content address for one seeded run of ``experiment``."""
        fingerprint = json.dumps(
            {
                "experiment": experiment,
                "params": params,
                "version": __version__,
                "source": source_fingerprint(),
            },
            sort_keys=True, default=repr,
        )
        return hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.json"

    def has(self, key: str) -> bool:
        """Existence probe that leaves the hit/miss counters and METRICS
        untouched (``repro campaign plan`` predicts cache outcomes with
        this without perturbing the stats a real run will report)."""
        return self._path(key).is_file()

    # -- read/write ------------------------------------------------------

    def get(self, key: str) -> Optional[Any]:
        """The stored payload for ``key``, or None on a miss.

        An *absent* entry is an ordinary miss.  An entry that exists but
        cannot be read or parsed is **corruption**, not a miss: the file
        is quarantined to ``<key>.corrupt`` (so the evidence survives and
        the next read is a clean miss), counted separately
        (``cache.corrupt``), and logged at warning.
        """
        path = self._path(key)
        try:
            envelope = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(envelope, dict):
                raise ValueError(f"cache envelope is {type(envelope).__name__},"
                                 " not an object")
        except FileNotFoundError:
            self.misses += 1
            if METRICS.enabled:
                METRICS.inc("cache.misses")
            return None
        except (OSError, ValueError) as exc:
            self._quarantine(path, key, exc)
            return None
        self.hits += 1
        if METRICS.enabled:
            METRICS.inc("cache.hits")
        log.info("cache hit: %s (%s)", envelope.get("experiment", "?"),
                 key[:12])
        return envelope.get("payload")

    def _quarantine(self, path: pathlib.Path, key: str,
                    exc: Exception) -> None:
        """Move an unreadable entry aside and count it distinctly."""
        self.corrupt += 1
        if METRICS.enabled:
            METRICS.inc("cache.corrupt")
        quarantined = path.with_suffix(".corrupt")
        try:
            path.replace(quarantined)
            where = str(quarantined)
        except OSError:
            where = str(path)  # leave it; the next read re-reports
        log.warning("cache entry %s is corrupt (%s); quarantined to %s",
                    key[:12], exc, where)

    def put(self, key: str, payload: Any, experiment: str = "",
            params: Optional[Mapping[str, Any]] = None) -> None:
        """Store ``payload`` (atomic rename; concurrent writers race safely)."""
        self.root.mkdir(parents=True, exist_ok=True)
        envelope = {
            "experiment": experiment,
            "params": params,
            "version": __version__,
            "payload": payload,
        }
        path = self._path(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            body = json.dumps(envelope, default=repr)
            if FAULTS.enabled and FAULTS.fires("cache.corrupt", key=key):
                body = body[: max(1, len(body) // 2)]  # truncated write
            tmp.write_text(body, encoding="utf-8")
            tmp.replace(path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise
        if METRICS.enabled:
            METRICS.inc("cache.stores")
        log.info("cache store: %s (%s)", experiment or "?", key[:12])

    # -- maintenance -----------------------------------------------------

    def _entries(self):
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.json"))

    def _tmp_files(self):
        if not self.root.is_dir():
            return []
        return sorted(p for p in self.root.iterdir()
                      if ".tmp." in p.name)

    def _corrupt_files(self):
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.corrupt"))

    def stats(self) -> Dict[str, Any]:
        entries = self._entries()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(p.stat().st_size for p in entries),
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "corrupt_files": len(self._corrupt_files()),
            "tmp_files": len(self._tmp_files()),
        }

    def clear(self) -> int:
        """Delete every entry (plus quarantined/orphaned files); returns
        the number of cache entries removed."""
        removed = 0
        for path in self._entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for path in self._tmp_files() + self._corrupt_files():
            try:
                path.unlink()
            except OSError:
                pass
        return removed

    def sweep(self) -> int:
        """Remove orphaned ``.tmp.<pid>`` files from dead writers.

        A writer that dies between write and rename leaks its temp file;
        a temp file whose pid is no longer alive (or unparsable) is an
        orphan.  Live writers' in-flight temps are left alone.  Returns
        the number of files removed.
        """
        removed = 0
        for path in self._tmp_files():
            suffix = path.name.rsplit(".tmp.", 1)[-1]
            try:
                pid = int(suffix)
            except ValueError:
                pid = None
            if pid is not None and pid != os.getpid():
                try:
                    os.kill(pid, 0)  # probe only: signal 0 delivers nothing
                    continue  # writer still alive; leave its temp file
                except ProcessLookupError:
                    pass
                except OSError:
                    continue  # e.g. EPERM: someone else's live process
            elif pid == os.getpid():
                continue  # our own in-flight write
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
