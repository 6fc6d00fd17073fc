"""Content-addressed result cache.

Results live under ``<root>/cache/objects/<hash>/`` where ``<hash>`` is
the config/run-spec SHA-256 the checkpoint machinery computes
(:func:`repro.checkpoint.config_hash`). A resubmitted identical spec
returns the stored artifact directory instead of re-simulating.

Population is crash-proof by construction: a worker builds the
artifact directory in ``cache/tmp/`` and publishes it with a single
``os.replace`` — the same tempfile-then-rename discipline as
``atomic_write``, lifted to whole directories. A crash mid-build
leaves only garbage in ``tmp/`` (swept on recovery); a crash *after*
the rename leaves a complete entry. Two workers racing to publish the
same hash are resolved by the filesystem: the second rename fails on
the now-existing destination and the loser discards its staging copy.
The cache therefore never holds a partial entry, which is what lets
``lookup`` trust a bare directory-existence check.

``index.jsonl`` is the append-only audit log (one line per populated
hash, fsynced) that the chaos tests use to prove no experiment was
simulated more than once per cache miss; the object tree itself is the
source of truth, and :meth:`ResultCache.reconcile` re-derives missing
index lines after a crash between publish and append.
"""

import os
import shutil
import tempfile

from repro.obs.artifacts import SUMMARY
from repro.obs.trace import append_jsonl, read_jsonl

CACHE_DIR = "cache"
OBJECTS_DIR = "objects"
TMP_DIR = "tmp"
INDEX = "index.jsonl"


class ResultCache:
    """Content-addressed artifact store under one service root."""

    def __init__(self, root):
        self.root = root
        self.base = os.path.join(root, CACHE_DIR)
        self.objects = os.path.join(self.base, OBJECTS_DIR)
        self.tmp = os.path.join(self.base, TMP_DIR)
        self.index_path = os.path.join(self.base, INDEX)
        os.makedirs(self.objects, exist_ok=True)
        os.makedirs(self.tmp, exist_ok=True)

    # --- lookup / publish --------------------------------------------

    def entry_path(self, spec_hash):
        return os.path.join(self.objects, spec_hash)

    def relative_entry(self, spec_hash):
        """Entry path relative to the service root (journal-friendly)."""
        return os.path.join(CACHE_DIR, OBJECTS_DIR, spec_hash)

    def lookup(self, spec_hash):
        """Absolute artifact directory for a hash, or None on a miss.

        Publication is atomic, so an existing entry directory is always
        complete; the summary check only guards against foreign debris.
        """
        path = self.entry_path(spec_hash)
        if os.path.isfile(os.path.join(path, SUMMARY)):
            return path
        return None

    def publish(self, spec_hash, build):
        """Populate the entry for ``spec_hash`` via ``build(staging_dir)``.

        Returns ``(path, fresh)`` where ``fresh`` is False when the
        entry already existed (including losing a publish race — the
        staged copy is discarded, never merged).
        """
        final = self.entry_path(spec_hash)
        if self.lookup(spec_hash) is not None:
            return final, False
        staging = tempfile.mkdtemp(dir=self.tmp, prefix=spec_hash[:12] + ".")
        try:
            build(staging)
            os.replace(staging, final)
            return final, True
        except OSError:
            if self.lookup(spec_hash) is not None:
                return final, False
            raise
        finally:
            shutil.rmtree(staging, ignore_errors=True)

    # --- audit index -------------------------------------------------

    def read_index(self):
        """Intact index entries, in append order (torn tail dropped)."""
        if not os.path.exists(self.index_path):
            return []
        return [entry for entry in read_jsonl(self.index_path)
                if "hash" in entry]

    def indexed_hashes(self):
        return {entry["hash"] for entry in self.read_index()}

    def record(self, spec_hash, job_id=None, t=None):
        """Durably append one index line (caller dedups per hash)."""
        entry = {"hash": spec_hash, "path": self.relative_entry(spec_hash)}
        if job_id is not None:
            entry["job"] = job_id
        if t is not None:
            entry["t"] = t
        append_jsonl(self.index_path, entry)

    def reconcile(self):
        """Sweep staging debris; index entries published but unindexed.

        Returns the set of indexed hashes after reconciliation. Called
        on service recovery: a crash between ``os.replace`` and the
        index append (or an orphaned worker publishing after its server
        died) leaves a complete object with no audit line.
        """
        for name in os.listdir(self.tmp):
            shutil.rmtree(os.path.join(self.tmp, name), ignore_errors=True)
        indexed = self.indexed_hashes()
        for name in sorted(os.listdir(self.objects)):
            if name not in indexed and self.lookup(name) is not None:
                self.record(name)
                indexed.add(name)
        return indexed
