"""The compiled kernels of ``_kernels.c``, built and loaded on first use.

Three kernels live there: the level split search and the tree walk of
:mod:`gazekit.forest`, and the 27-triple pupil search of
:mod:`gazekit.pupil`. Each gives bit-identical results to the numpy code it
stands in for, which stays as the fallback.

On the first call of :func:`kernels` in a process, the source is compiled
with the system ``cc`` into ``$XDG_CACHE_HOME/gazekit/`` (default
``~/.cache/gazekit/``), keyed by the hash of the source, the flags and the
machine, and loaded with ctypes. Without a compiler or a writable cache
directory, :func:`kernels` returns None and every caller runs its numpy
code; when the build or the load fails, it also prints one warning on
stderr. ctypes is imported only then, so importing this module loads
nothing that ``numpy`` has not.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_kernels.c")
COMPILER = "cc"  # looked up on PATH
FLAGS = ("-O2", "-std=c99", "-ffp-contract=off", "-shared", "-fPIC")
_UNRESOLVED = object()
# The kernel handle: a Kernels, None for the numpy path, or _UNRESOLVED
# until the first call of kernels().
_kernel = _UNRESOLVED


def _carray(array, dtype):
    """``array`` as a C-contiguous array of ``dtype``, copied only if needed."""
    return np.ascontiguousarray(array, dtype=dtype)


class Kernels:
    """The functions of ``_kernels.c``, called like their numpy counterparts."""

    def __init__(self, lib):
        import ctypes

        i64, ptr = ctypes.c_int64, ctypes.c_void_p
        self._lib = lib  # keeps the library loaded
        self._predict = lib.gzk_predict
        self._predict.argtypes = [i64, i64, ptr, i64, ptr, i64, ptr, ptr, ptr, i64, ptr, ptr]
        self._predict.restype = ctypes.c_int
        self._level_splits = lib.gzk_level_splits
        self._level_splits.argtypes = (
            [i64, i64, i64, ptr, ptr, ptr, ptr, i64, i64, ptr, ptr, i64, ptr, ptr, i64]
            + [ptr, ptr, ptr]
        )
        self._level_splits.restype = i64
        self._pupil_search = lib.gzk_pupil_search
        self._pupil_search.argtypes = [i64, i64, ptr, ptr, ptr, ptr, i64, ctypes.c_double,
                                       ptr, ptr]
        self._pupil_search.restype = ctypes.c_int

    def predict(self, nodes, fractions: np.ndarray, X: np.ndarray) -> np.ndarray:
        """``fractions[forest._leaf_nodes(nodes, X)].mean(axis=1)``."""
        X, roots = _carray(X, np.float64), _carray(nodes.roots, np.int64)
        feature, threshold = _carray(nodes.feature, np.int32), _carray(nodes.threshold, np.float64)
        right, fractions = _carray(nodes.right, np.int32), _carray(fractions, np.float64)
        if not threshold.shape == right.shape == fractions.shape[:1] == feature.shape:
            raise ValueError("node arrays of different lengths")
        probs = np.zeros((X.shape[0], fractions.shape[1]))
        status = self._predict(
            X.shape[0], X.shape[1], X.ctypes.data, roots.size, roots.ctypes.data,
            feature.size, feature.ctypes.data, threshold.ctypes.data, right.ctypes.data,
            fractions.shape[1], fractions.ctypes.data, probs.ctypes.data,
        )
        if status:
            raise ValueError("forest walk left its tree")
        return probs

    def level_splits(self, counts, feats, rows, slot, data, weight, min_leaf):
        """``forest._level_splits`` with the same inputs and results."""
        X, y, ranks = data
        X, y, ranks = _carray(X, np.float64), _carray(y, np.int64), _carray(ranks, np.int32)
        counts, feats, weight = (_carray(a, np.int64) for a in (counts, feats, weight))
        rows, slot = _carray(rows, np.int64), _carray(slot, np.int64)
        m = counts.shape[0]
        node, feature, threshold = np.empty(m, np.int64), np.empty(m, np.int64), np.empty(m)
        found = self._level_splits(
            X.shape[0], X.shape[1], counts.shape[1], X.ctypes.data, y.ctypes.data,
            ranks.ctypes.data, weight.ctypes.data, m, feats.shape[1], counts.ctypes.data,
            feats.ctypes.data, rows.size, rows.ctypes.data, slot.ctypes.data, min_leaf,
            node.ctypes.data, feature.ctypes.data, threshold.ctypes.data,
        )
        if found < 0:
            raise MemoryError("split search scratch")
        return node[:found], feature[:found], threshold[:found]

    def pupil_search(self, rescaled, thresholds, openings, closings, min_area, min_aspect):
        """The largest circular blob over every (threshold, opening, closing)
        triple of the three value lists, as ``pupil.detect_pupil``'s numpy
        loop finds it: None, or (triple index, area, (width, height),
        (cx, cy)), the index in ``itertools.product`` order."""
        image = _carray(rescaled, np.float64)
        if image.ndim != 2:
            raise ValueError("the rescaled eye crop must be a 2-d array")
        # A window wider than the crop acts as one just as wide, so windows
        # past int64 are capped before they reach C.
        grid = [_carray(thresholds, np.float64)] + [
            _carray([min(v, 2**62) for v in windows], np.int64) for windows in (openings, closings)
        ]
        if any(v.shape != (3,) for v in grid):
            raise ValueError("a pupil grid holds 3 values per parameter")
        stats, centroid = np.zeros(4, np.int64), np.zeros(2)
        found = self._pupil_search(
            image.shape[0], image.shape[1], image.ctypes.data,
            *(v.ctypes.data for v in grid), min_area, min_aspect,
            stats.ctypes.data, centroid.ctypes.data,
        )
        if found < 0:
            raise MemoryError("pupil search scratch")
        if not found:
            return None
        index, area, width, height = stats.tolist()
        return index, area, (width, height), (float(centroid[0]), float(centroid[1]))


def _cache_dir() -> Path | None:
    """``$XDG_CACHE_HOME/gazekit`` (default ``~/.cache/gazekit``), created
    with mode 0700; None unless it is a directory of this user that no one
    else may write to, since the library built there is loaded as code."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    try:
        cache = (Path(base) if os.path.isabs(base) else Path.home() / ".cache") / "gazekit"
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
        info = cache.stat()
    except (OSError, RuntimeError):  # RuntimeError: no home directory
        return None
    return cache if info.st_uid == os.getuid() and not info.st_mode & 0o022 else None


def load_kernels() -> Kernels | None:
    """Build ``_kernels.c`` into the cache directory unless it is there, and
    load it; None when there is no compiler, the cache directory cannot be
    written, or the build or the load fails (warned on stderr)."""
    import ctypes
    import hashlib
    import platform
    import shutil
    import subprocess
    import tempfile

    compiler = shutil.which(COMPILER)
    cache = None if compiler is None else _cache_dir()
    if cache is None:
        return None
    key = hashlib.sha256(b"\0".join(
        [SOURCE.read_bytes(), " ".join(FLAGS).encode(), platform.machine().encode()]
    )).hexdigest()[:32]
    target = cache / f"kernels-{key}.so"
    if not target.exists():
        try:
            handle, partial = tempfile.mkstemp(prefix=".kernels-", suffix=".so", dir=cache)
        except OSError:
            return None
        os.close(handle)
        try:
            build = subprocess.run(
                [compiler, *FLAGS, "-o", partial, str(SOURCE)],
                stdin=subprocess.DEVNULL, capture_output=True, text=True,
            )
            if build.returncode != 0:
                return _unavailable(f"{compiler} exited {build.returncode}: {build.stderr.strip()}")
            # Renamed into place whole: no process loads a half-written file.
            os.replace(partial, target)
        except OSError as exc:
            return _unavailable(f"cannot build: {exc}")
        finally:
            if os.path.exists(partial):
                os.unlink(partial)
    try:
        return Kernels(ctypes.CDLL(str(target)))
    except (OSError, AttributeError) as exc:
        return _unavailable(f"cannot load {target}: {exc}")


def _unavailable(reason: str) -> None:
    sys.stderr.write(f"gazekit: C kernels unavailable, using numpy ({reason})\n")
    return None


def kernels() -> Kernels | None:
    """The kernel handle, resolved on the first call in a process."""
    global _kernel
    if _kernel is _UNRESOLVED:
        _kernel = load_kernels()
    return _kernel
