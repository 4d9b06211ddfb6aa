"""Lazily served package exports (PEP 562).

``import repro`` loads only what a fuzzing session runs: the engine,
campaign and scheduler, the PM substrate, instrumentation, detection and
validation. Every other public name of a package (the worker pool,
durable sessions, the bug matrix, result tables, reporting, the extra
checkers, trace statistics, conformance and the built-in target
classes) is served by the package's module ``__getattr__``, which
imports the defining module on first access.
"""

import importlib


def lazy_exports(namespace, exports):
    """A module ``__getattr__`` for the package whose ``globals()`` is
    ``namespace``.

    ``exports`` maps a module, relative to the package, to the names it
    serves. The first access to one of those names imports its module
    and caches the value in ``namespace``, so later accesses are plain
    attribute lookups.
    """
    package = namespace["__name__"]
    modules = {name: module for module, names in exports.items()
               for name in names}

    def __getattr__(name):
        try:
            module = modules[name]
        except KeyError:
            raise AttributeError("module %r has no attribute %r"
                                 % (package, name)) from None
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    return __getattr__
