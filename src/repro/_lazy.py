"""Package re-exports that import on first access (PEP 562).

A package names each submodule it re-exports from and the names it takes
from it; importing the package then imports none of them, and
``from repro.core import MWCNTInterconnect`` imports ``repro.core.mwcnt``
alone.  A cold process so pays only for the modules its command uses.
"""

import sys


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """``(__all__, __getattr__, __dir__)`` for ``package``, which re-exports
    the names ``exports[submodule]`` of each ``package.submodule``.

    A name is imported on its first access; each read returns the
    submodule's current binding (nothing is cached on the package, so a
    patch of the submodule shows and its undo restores it).  An unknown
    name raises :class:`AttributeError`.
    """
    home = {name: f"{package}.{module}" for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        # The import statement's own path, which ``-X importtime`` reports
        # (``importlib.import_module`` bypasses it).
        __import__(home[name])
        return getattr(sys.modules[home[name]], name)

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(home))

    return list(home), __getattr__, __dir__
