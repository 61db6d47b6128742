"""Shared plumbing: seeded RNG streams, deterministic archives, config digests.

All randomness in the package flows through :func:`stream` so that every
consumer owns an independent, reproducible generator derived from a single
master seed.  Streams are keyed by a short ASCII tag plus optional integer
indices; the same (seed, tag, indices) always yields the same PCG64 state.
"""

from __future__ import annotations

import io
import json
import zipfile

import numpy as np

from .errors import InputError

# Stream tags used across the package. Kept in one place so seeds never
# collide between subsystems.
TAG_DATASET_DEMAND = 1  # realized demand during dataset generation
TAG_SAA_SCENARIO = 2    # the oracle's daily scenario draws
TAG_ROLLOUT_DEMAND = 3  # fresh demand during surrogate evaluation
TAG_LEARNER = 4         # subsampling inside learners


def stream(seed: int, tag: int, *indices: int) -> np.random.Generator:
    """Return a PCG64 generator for the (seed, tag, indices) stream.

    Independent streams are derived through ``SeedSequence`` spawn keys, so
    workers can draw concurrently without sharing state.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(tag, *map(int, indices)))
    return np.random.default_rng(ss)


def save_arrays(path, meta: dict, arrays: dict) -> None:
    """Write a deterministic zip archive of .npy members plus a JSON header.

    Unlike ``np.savez`` the member timestamps are pinned, so identical inputs
    produce byte-identical files.
    """
    order = sorted(arrays)
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        info = zipfile.ZipInfo("meta.json", date_time=(1980, 1, 1, 0, 0, 0))
        zf.writestr(info, json.dumps(meta, sort_keys=True, indent=1))
        for name in order:
            buf = io.BytesIO()
            np.save(buf, np.ascontiguousarray(arrays[name]))
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, buf.getvalue())


def load_arrays(path):
    """Read back an archive written by :func:`save_arrays`.

    A file that is not such an archive raises ``InputError`` naming it."""
    arrays = {}
    try:
        with zipfile.ZipFile(path, "r") as zf:
            meta = json.loads(zf.read("meta.json").decode("utf-8"))
            for name in zf.namelist():
                if name.endswith(".npy"):
                    arrays[name[:-4]] = np.load(io.BytesIO(zf.read(name)), allow_pickle=False)
    except (zipfile.BadZipFile, EOFError, KeyError, ValueError) as exc:
        raise InputError(f"{path}: not a readable archive ({type(exc).__name__}: {exc})") from None
    if not isinstance(meta, dict):
        raise InputError(f"{path}: meta.json must hold a JSON object")
    return meta, arrays


def config_digest(obj) -> str:
    """SHA-256 of the canonical JSON form; stable under key reordering."""
    import hashlib

    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
