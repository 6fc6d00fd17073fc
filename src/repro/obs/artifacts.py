"""Run-artifact flight recorder.

``repro run --artifacts DIR`` (and every ``repro serve`` cache entry)
writes a self-describing directory whose manifest is the
:class:`~repro.serve.spec.JobSpec` that ran, so a run's result carries
the experiment that produced it:

.. code-block:: text

    DIR/
      manifest.json   # kind, schema 2, spec, spec_hash, versions, files
      summary.json    # SimResult.to_dict()
      metrics.json    # MetricsRegistry JSON export
      samples.jsonl   # optional: NetworkSampler snapshots
      spans.json      # optional: span latency decomposition

``repro serve ROOT --submit DIR/manifest.json`` re-runs the directory,
fault plan and transport included, to the same ``summary.json``.
Whether a change moved a result is answered exactly, not by comparing
these directories: by the checked-in core goldens and by the digest
fingerprint of ``repro run --json --digest FILE``.
"""

import contextlib
import json
import os
import platform
import tempfile
import time

MANIFEST = "manifest.json"
SUMMARY = "summary.json"
METRICS_JSON = "metrics.json"
SAMPLES = "samples.jsonl"
SPANS = "spans.json"


@contextlib.contextmanager
def atomic_write(path, mode="w", fsync=True):
    """Write ``path`` via a same-directory temp file plus ``os.replace``.

    A crash mid-write leaves either the previous file contents or
    nothing — never a truncated artifact. Used for every artifact and
    checkpoint file. ``mode`` is ``"w"`` or ``"wb"``. ``fsync=False``
    keeps the rename atomicity (readers never see a partial file) but
    not durability across a host crash — only for files nothing reads
    after one, i.e. liveness leases.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
            fh.flush()
            if fsync:
                os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        raise


def _dump(path, payload):
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_run_artifacts(
    directory, spec, result, registry=None, sampler=None, span_set=None,
    spec_hash=None,
):
    """Write the artifact directory of one run of ``spec`` (a JobSpec;
    ``spec_hash`` when the caller has it); returns the file list."""
    from repro import __version__

    os.makedirs(directory, exist_ok=True)
    written = [MANIFEST, SUMMARY]
    _dump(os.path.join(directory, SUMMARY), result.to_dict())
    if registry is not None:
        _dump(os.path.join(directory, METRICS_JSON), registry.to_dict())
        written.append(METRICS_JSON)
    if sampler is not None:
        sampler.save_jsonl(os.path.join(directory, SAMPLES))
        written.append(SAMPLES)
    if span_set is not None:
        _dump(os.path.join(directory, SPANS), span_set.decomposition())
        written.append(SPANS)
    manifest = {
        "kind": "run",
        "schema": 2,
        "spec": spec.to_dict(),
        "spec_hash": spec_hash or spec.spec_hash(),
        "versions": {
            "repro": __version__,
            "python": platform.python_version(),
        },
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "files": sorted(written),
    }
    _dump(os.path.join(directory, MANIFEST), manifest)
    return manifest["files"]
