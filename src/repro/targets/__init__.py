"""Concurrent PM systems under test (Table 1 + SDK extensions).

The built-in targets live here; third-party workloads plug in through
the registry (:func:`register_target` / ``--target-module``, see
``docs/TARGET_SDK.md``) and are checked by :mod:`.conformance`.
"""

from .base import OperationSpace, Target, TargetState, raw_view
from .cceh import CcehTarget
from .clevel import ClevelTarget
from .conformance import check_all, check_target
from .fastfair import FastFairTarget
from .memcached import MemcachedOperationSpace, MemcachedTarget
from .pclht import PclhtTarget
from .pmring import PmRingTarget
from .registry import (
    BUILTIN_TARGET_CLASSES,
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
from .txkv import TxKvTarget

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
