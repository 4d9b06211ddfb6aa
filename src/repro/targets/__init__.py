"""Concurrent PM systems under test (Table 1 + SDK extensions).

The built-in targets live here; third-party workloads plug in through
the registry (:func:`register_target` / ``--target-module``, see
``docs/TARGET_SDK.md``) and are checked by :mod:`.conformance`.
"""

from .._lazy import lazy_exports
from .base import OperationSpace, Target, TargetState, raw_view
from .registry import (
    DuplicateTargetError,
    TargetModuleError,
    TargetRegistryError,
    UnknownTargetError,
    load_target_module,
    load_target_modules,
    make_target,
    register_target,
    registered_classes,
    table1_rows,
    target_class,
    target_names,
    unregister_target,
)

# A session imports only the target it fuzzes (see the registry);
# the rest is imported on first use (see repro._lazy).
__getattr__ = lazy_exports(globals(), {
    ".registry": ("BUILTIN_TARGET_CLASSES",),
    ".pclht": ("PclhtTarget",),
    ".clevel": ("ClevelTarget",),
    ".cceh": ("CcehTarget",),
    ".fastfair": ("FastFairTarget",),
    ".memcached": ("MemcachedTarget", "MemcachedOperationSpace"),
    ".pmring": ("PmRingTarget",),
    ".txkv": ("TxKvTarget",),
    ".conformance": ("check_target", "check_all"),
})

__all__ = [
    "Target",
    "TargetState",
    "OperationSpace",
    "raw_view",
    "PclhtTarget",
    "ClevelTarget",
    "CcehTarget",
    "FastFairTarget",
    "MemcachedTarget",
    "MemcachedOperationSpace",
    "PmRingTarget",
    "TxKvTarget",
    "BUILTIN_TARGET_CLASSES",
    "register_target",
    "unregister_target",
    "registered_classes",
    "load_target_module",
    "load_target_modules",
    "make_target",
    "target_class",
    "target_names",
    "table1_rows",
    "TargetRegistryError",
    "UnknownTargetError",
    "DuplicateTargetError",
    "TargetModuleError",
    "check_target",
    "check_all",
]
