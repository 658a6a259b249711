"""Compiled scipy modules loaded from their extension files.

dipa calls four families of compiled routines that scipy ships: the HiGHS
binding (scipy.optimize._highspy._core), LAPACK (scipy.linalg._flapack) and
the sparse kernels (scipy.sparse._sparsetools). Importing them by name
runs the __init__ of scipy.optimize, scipy.linalg and scipy.sparse, which
pull in hundreds of modules dipa never calls, numpy.f2py and numpy.testing
among them (through scipy._lib._array_api), and that import was most of a
dipa command's cold start. load reads the extension file alone.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import sys
from pathlib import Path

import scipy


@functools.cache
def load(name: str):
    """The extension module scipy imports as name, e.g.
    "scipy.linalg._flapack". When scipy has already imported it, that module
    object; otherwise the file in scipy's folder for the package, loaded
    once and not entered in sys.modules (entering it would leave the package
    without the attribute a later import of the package gives it).
    ImportError naming the folder when no file matches."""
    if name in sys.modules:
        return sys.modules[name]
    *package, leaf = name.split(".")
    folder = Path(scipy.__file__).parent.joinpath(*package[1:])
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"{leaf}{suffix}"
        if path.is_file():
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            # CPython enters a single-phase extension (f2py's _flapack,
            # _sparsetools) in sys.modules as it initialises it
            if sys.modules.get(name) is module:
                del sys.modules[name]
            return module
    raise ImportError(f"no extension {leaf} in {folder}")
