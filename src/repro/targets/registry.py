"""Target registry: name → class, open to third-party workloads.

The registry is the plugin boundary of the target SDK
(``docs/TARGET_SDK.md``): every consumer — the engine, the CLI, the
replay tooling, parallel workers — resolves targets exclusively by
name through this module. The built-in Table 1 systems are listed in
one static table, :data:`BUILTIN_TARGETS`, and are resolved on first
lookup: :func:`make_target` / :func:`target_class` import only the
module of the target they are asked for, so a session loads one target,
not seven. :data:`BUILTIN_TARGET_CLASSES`, :func:`registered_classes`
and :func:`table1_rows` import all of them. ``--target-module pkg.mod``
(or a ``path/to/file.py``) on any CLI subcommand funnels into
:func:`load_target_module`, which imports the module and registers the
:class:`~repro.targets.base.Target` subclasses it defines through the
same :func:`register_target` call any external workload uses; a plugin
cannot take a built-in's name, loaded yet or not.

Registration performs only the cheap static contract checks (a unique
non-empty ``NAME``, a ``Target`` subclass); the executable contract —
operation space round-trips, setup/open/exec/recover behavior — is
checked by :mod:`repro.targets.conformance`, which every built-in
target passes in CI and plugin authors are expected to run (see the
conformance section of the SDK cookbook).
"""

import importlib
import importlib.util
import os

from .base import Target


class TargetRegistryError(Exception):
    """Base class for registry misuse."""


class UnknownTargetError(TargetRegistryError, KeyError):
    """Lookup of a name no registered target carries.

    Subclasses ``KeyError`` so pre-SDK callers that caught the lookup
    error keep working.
    """

    def __str__(self):
        # KeyError.__str__ repr()s its single argument; keep the
        # human-readable message intact.
        return self.args[0] if self.args else KeyError.__str__(self)


class DuplicateTargetError(TargetRegistryError):
    """Two distinct classes registered under one ``NAME``."""


class TargetModuleError(TargetRegistryError):
    """``--target-module`` could not be imported or defined no targets."""


#: Built-in name → (module in this package, class name): the five
#: Table 1 systems in paper order, then the two extension targets added
#: by the SDK (ring buffer and transactional KV store).
BUILTIN_TARGETS = {
    "P-CLHT": ("pclht", "PclhtTarget"),
    "clevel hashing": ("clevel", "ClevelTarget"),
    "CCEH": ("cceh", "CcehTarget"),
    "FAST-FAIR": ("fastfair", "FastFairTarget"),
    "memcached-pmem": ("memcached", "MemcachedTarget"),
    "pmring": ("pmring", "PmRingTarget"),
    "txkv": ("txkv", "TxKvTarget"),
}

#: name → class, insertion ordered (built-ins first, plugins after); a
#: built-in maps to None until its first lookup imports it.
_REGISTRY = dict.fromkeys(BUILTIN_TARGETS)

#: abspath → module, so re-loading a plugin file is idempotent instead
#: of minting fresh duplicate classes.
_LOADED_FILES = {}


def register_target(cls, replace=False):
    """Register a :class:`Target` subclass under its ``NAME``.

    Usable as a decorator (returns ``cls``). Registration is idempotent
    for the same class object; registering a *different* class under an
    existing name raises :class:`DuplicateTargetError` unless
    ``replace=True``.
    """
    if not (isinstance(cls, type) and issubclass(cls, Target)):
        raise TargetRegistryError(
            "register_target needs a Target subclass, got %r" % (cls,))
    name = getattr(cls, "NAME", None)
    if not isinstance(name, str) or not name.strip():
        raise TargetRegistryError(
            "%s.NAME must be a non-empty string, got %r"
            % (cls.__name__, name))
    if name == Target.NAME:
        raise TargetRegistryError(
            "%s must override the default NAME %r"
            % (cls.__name__, Target.NAME))
    existing = target_class(name) if name in _REGISTRY else None
    if existing is not None and existing is not cls and not replace:
        raise DuplicateTargetError(
            "target name %r already registered by %s.%s (pass "
            "replace=True to override)"
            % (name, existing.__module__, existing.__name__))
    _REGISTRY[name] = cls
    return cls


def unregister_target(name):
    """Remove one registered target by name (plugin teardown, tests)."""
    try:
        del _REGISTRY[name]
    except KeyError:
        raise UnknownTargetError(_unknown_message(name))


def _builtin_class(name):
    """Import built-in ``name``'s module; its class."""
    module, class_name = BUILTIN_TARGETS[name]
    return getattr(importlib.import_module("." + module, __package__),
                   class_name)


def __getattr__(name):
    if name == "BUILTIN_TARGET_CLASSES":
        return tuple(_builtin_class(key) for key in BUILTIN_TARGETS)
    raise AttributeError("module %r has no attribute %r"
                         % (__name__, name))


def registered_classes():
    """Every registered target class, registration order."""
    return tuple(target_class(name) for name in _REGISTRY)


def target_names():
    return list(_REGISTRY)


def _unknown_message(name):
    return "unknown target %r; known: %s" % (name, ", ".join(target_names()))


def target_class(name):
    """Look up a target class by name, without instantiating it."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise UnknownTargetError(_unknown_message(name))
    if cls is None:
        cls = _REGISTRY[name] = _builtin_class(name)
    return cls


def make_target(name):
    """Instantiate a target by its registered name."""
    return target_class(name)()


def _import_module(spec):
    """Import a plugin module from a dotted name or a ``.py`` path."""
    if spec.endswith(".py") or os.sep in spec:
        path = os.path.abspath(spec)
        cached = _LOADED_FILES.get(path)
        if cached is not None:
            return cached
        if not os.path.exists(path):
            raise TargetModuleError("no target module file at %s" % spec)
        module_name = os.path.splitext(os.path.basename(path))[0]
        loader_spec = importlib.util.spec_from_file_location(module_name,
                                                             path)
        if loader_spec is None or loader_spec.loader is None:
            raise TargetModuleError("cannot load target module %s" % spec)
        module = importlib.util.module_from_spec(loader_spec)
        try:
            loader_spec.loader.exec_module(module)
        except Exception as exc:
            raise TargetModuleError(
                "error importing target module %s: %r" % (spec, exc))
        _LOADED_FILES[path] = module
        return module
    try:
        return importlib.import_module(spec)
    except Exception as exc:
        raise TargetModuleError(
            "error importing target module %s: %r" % (spec, exc))


def load_target_module(spec):
    """Import ``spec`` and register the targets it defines.

    ``spec`` is a dotted module name (``myteam.pm_targets``) or a file
    path (``targets/mystore.py``). The module may register explicitly
    (``@register_target`` or a module-level ``register_target(cls)``
    call); any :class:`Target` subclass *defined in the module* that is
    still unregistered after import is auto-registered, so a plain
    module of target classes needs no registration boilerplate.

    Returns the list of target names the module contributed (empty on
    a repeat load of an already-registered module). Raises
    :class:`TargetModuleError` when the import fails or the module
    defines no targets at all.
    """
    before = set(_REGISTRY)
    module = _import_module(spec)
    defined = []
    for value in vars(module).values():
        if isinstance(value, type) and issubclass(value, Target) \
                and value is not Target \
                and value.__module__ == module.__name__:
            defined.append(value)
    for cls in defined:
        if _REGISTRY.get(cls.NAME) is not cls:
            register_target(cls)
    if not defined and not any(cls is not None
                               and cls.__module__ == module.__name__
                               for cls in _REGISTRY.values()):
        raise TargetModuleError(
            "target module %s defines no Target subclasses" % spec)
    return [name for name, cls in _REGISTRY.items()
            if name not in before]


def load_target_modules(specs):
    """Load several plugin modules; returns all contributed names."""
    names = []
    for spec in specs or ():
        names.extend(load_target_module(spec))
    return names


def table1_rows():
    """The target inventory (system, version, scope, concurrency).

    Covers every *registered* target — built-ins in paper order first,
    then dynamically loaded plugins — so ``repro targets`` /
    ``repro tables`` show third-party workloads alongside Table 1.
    """
    return [
        {"system": cls.NAME, "version": cls.VERSION, "scope": cls.SCOPE,
         "concurrency": cls.CONCURRENCY}
        for cls in registered_classes()
    ]
