"""Lazy package façades (PEP 562): exported names resolve on first use.

Every ``repro`` package ``__init__``, and each module a name moved out
of, declares one map from each name it exports to the module that
defines it, and installs the hooks :func:`lazy_exports` returns.
Importing a package then imports none of its modules: ``from repro import tr`` loads what ``tr`` needs, and a
CLI verb pays only for the modules it runs.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Tuple


def lazy_exports(package: str, exports: Dict[str, str]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair serving ``exports``.

    The first access to an exported name imports its module and binds
    the value in the package namespace, so later reads are plain
    attribute lookups.  A name spelled like the submodule defining it
    (``repro.synthesis.tr`` exports ``tr``) is bound at once: importing
    that submodule later would otherwise bind the module over it.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    for name, module in exports.items():
        if module == f"{package}.{name}":
            __getattr__(name)
    return __getattr__, __dir__
