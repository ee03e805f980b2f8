"""scipy's compiled functions without scipy's subpackages.

The lab calls three compiled scipy functions: QUADPACK's qagse (the
profile's normalization integral), pocketfft's DST-I (the solvers' sine
basis) and erf (the shear lift).  Importing the public subpackage of any of
them runs far more than the one extension it needs: scipy.integrate imports
linalg, optimize, sparse, spatial and constants, and scipy.special (which
scipy.fft imports) loads scipy._lib._array_api, array_api_compat,
numpy.f2py and numpy.testing.  Each extension is instead loaded from its
file (scipy_extension), which imports numpy alone.  A caller whose file or
name is missing falls back to the public import, and routes() names the
route each one takes.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
from functools import cache
from pathlib import Path

import scipy

__all__ = ["EXTENSIONS", "scipy_extension", "compiled", "use_public", "routes"]

# route key -> (subdirectory of scipy, extension module, function, public import)
EXTENSIONS = {
    "quadpack": ("integrate", "_quadpack", "_qagse", "scipy.integrate.quad"),
    "pocketfft": ("fft/_pocketfft", "pypocketfft", "dst", "scipy.fft"),
    "special_ufuncs": ("special", "_special_ufuncs", "erf", "scipy.special"),
}
_public: set = set()        # route keys that ran on their public import in this process


@cache
def scipy_extension(subdir: str, module: str):
    """scipy/<subdir>/<module>'s compiled extension, loaded by file path
    without importing its package; None when this scipy has no such file."""
    where = Path(scipy.__file__).parent / subdir
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = where / (module + suffix)
        if path.is_file():
            name = ".".join(("scipy", *Path(subdir).parts, module))
            spec = importlib.util.spec_from_file_location(name, path)
            ext = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(ext)
            return ext
    return None


def compiled(key: str):
    """The function of EXTENSIONS[key] from its file-loaded extension, or
    None when the file or the name is missing (the caller then imports the
    public route)."""
    subdir, module, name, _ = EXTENSIONS[key]
    return getattr(scipy_extension(subdir, module), name, None)


def use_public(key: str) -> None:
    """Record that the route of key ran on its public import although its
    function was found (qagse's error flag hands the integral to quad)."""
    _public.add(key)


def routes() -> dict:
    """Per route key, 'direct' while this process calls the file-loaded
    function, else the public import it ran (or will run) on."""
    return {key: public if key in _public or compiled(key) is None else "direct"
            for key, (*_, public) in EXTENSIONS.items()}
