"""Target registry tests: built-ins, registration, dynamic loading."""

import textwrap

import pytest

from repro.detect.validation_service import fresh_target_factory
from repro.targets import registry
from repro.targets import (
    BUILTIN_TARGET_CLASSES,
    DuplicateTargetError,
    Target,
    TargetModuleError,
    TargetRegistryError,
    UnknownTargetError,
    load_target_module,
    make_target,
    register_target,
    registered_classes,
    table1_rows,
    target_class,
    target_names,
    unregister_target,
)

PAPER_NAMES = ["P-CLHT", "clevel hashing", "CCEH", "FAST-FAIR",
               "memcached-pmem"]
BUILTIN_NAMES = PAPER_NAMES + ["pmring", "txkv"]


class TestRegistry:
    def test_seven_builtin_targets(self):
        assert len(BUILTIN_TARGET_CLASSES) == 7

    def test_names_paper_order_first(self):
        assert target_names()[:5] == PAPER_NAMES
        assert target_names() == BUILTIN_NAMES

    def test_make_target(self):
        target = make_target("P-CLHT")
        assert target.NAME == "P-CLHT"

    def test_make_new_targets(self):
        assert make_target("pmring").NAME == "pmring"
        assert make_target("txkv").NAME == "txkv"

    def test_unknown_target(self):
        with pytest.raises(KeyError):
            make_target("redis")

    def test_unknown_target_message_lists_known(self):
        with pytest.raises(UnknownTargetError) as excinfo:
            target_class("redis")
        assert "redis" in str(excinfo.value)
        assert "pmring" in str(excinfo.value)

    def test_table1_contents(self):
        rows = table1_rows()
        by_name = {row["system"]: row for row in rows}
        assert by_name["P-CLHT"]["version"] == "70bf21c"
        assert by_name["clevel hashing"]["concurrency"] == "Lock-free"
        assert by_name["CCEH"]["scope"] == "Extendible hashing"
        assert by_name["FAST-FAIR"]["scope"] == "B+-Tree"
        assert by_name["memcached-pmem"]["scope"] == "Key-value store"
        assert by_name["pmring"]["concurrency"] == "Lock-free"
        assert by_name["txkv"]["scope"] == "Key-value store"

    def test_libpmem_targets(self):
        libpmem = [cls.NAME for cls in BUILTIN_TARGET_CLASSES if cls.USES_LIBPMEM]
        assert libpmem == ["memcached-pmem", "pmring"]

    def test_all_targets_setup(self):
        for cls in BUILTIN_TARGET_CLASSES:
            state = cls().setup()
            assert state.pool.size > 0


class TestLazyBuiltins:
    """Built-ins are listed in a static table and imported on first
    lookup; a lookup must behave the same whether or not it has
    happened yet."""

    @pytest.fixture
    def unloaded(self, monkeypatch):
        """Put every built-in back in the not-yet-loaded state."""
        for name in registry.BUILTIN_TARGETS:
            monkeypatch.setitem(registry._REGISTRY, name, None)

    def test_table_names_match_class_names(self):
        assert list(registry.BUILTIN_TARGETS) == BUILTIN_NAMES
        for name, cls in zip(registry.BUILTIN_TARGETS,
                             BUILTIN_TARGET_CLASSES):
            assert cls.NAME == name
            assert cls.__module__ == "repro.targets." \
                + registry.BUILTIN_TARGETS[name][0]

    def test_lookup_loads_the_builtin(self, unloaded):
        assert target_class("CCEH") is BUILTIN_TARGET_CLASSES[2]
        assert registry._REGISTRY["CCEH"] is BUILTIN_TARGET_CLASSES[2]
        assert registry._REGISTRY["txkv"] is None

    def test_duplicate_of_unloaded_builtin_rejected(self, unloaded):
        class Impostor(Target):
            NAME = "CCEH"

        with pytest.raises(DuplicateTargetError):
            register_target(Impostor)
        assert target_class("CCEH") is not Impostor
        assert target_class("CCEH").__name__ == "CcehTarget"

    def test_plugins_listed_after_builtins(self, unloaded):
        class Plugin(Target):
            NAME = "demo-order"

        register_target(Plugin)
        try:
            assert target_names() == BUILTIN_NAMES + ["demo-order"]
            assert [row["system"] for row in table1_rows()] \
                == BUILTIN_NAMES + ["demo-order"]
        finally:
            unregister_target("demo-order")

    def test_unknown_message_lists_every_builtin(self, unloaded):
        with pytest.raises(UnknownTargetError) as excinfo:
            make_target("redis")
        for name in BUILTIN_NAMES:
            assert name in str(excinfo.value)

    def test_fresh_target_factory_uses_registry(self, unloaded):
        for name in BUILTIN_NAMES:
            live = make_target(name)
            factory = fresh_target_factory(live)
            assert factory is not type(live)
            fresh = factory()
            assert type(fresh) is type(live) and fresh is not live


class TestRegistration:
    def test_register_and_unregister(self):
        class DemoTarget(Target):
            NAME = "demo-register"

        assert register_target(DemoTarget) is DemoTarget
        try:
            assert target_class("demo-register") is DemoTarget
            assert DemoTarget in registered_classes()
            assert "demo-register" in [r["system"] for r in table1_rows()]
        finally:
            unregister_target("demo-register")
        assert "demo-register" not in target_names()

    def test_register_idempotent_for_same_class(self):
        class DemoTarget(Target):
            NAME = "demo-idempotent"

        register_target(DemoTarget)
        try:
            register_target(DemoTarget)  # no error
        finally:
            unregister_target("demo-idempotent")

    def test_duplicate_name_rejected(self):
        class Impostor(Target):
            NAME = "P-CLHT"

        with pytest.raises(DuplicateTargetError):
            register_target(Impostor)
        # the original mapping is untouched
        assert target_class("P-CLHT") is not Impostor

    def test_duplicate_name_replace(self):
        class First(Target):
            NAME = "demo-replace"

        class Second(Target):
            NAME = "demo-replace"

        register_target(First)
        try:
            register_target(Second, replace=True)
            assert target_class("demo-replace") is Second
        finally:
            unregister_target("demo-replace")

    def test_non_target_rejected(self):
        with pytest.raises(TargetRegistryError):
            register_target(object)

    def test_default_name_rejected(self):
        class Nameless(Target):
            pass

        with pytest.raises(TargetRegistryError):
            register_target(Nameless)

    def test_unregister_unknown(self):
        with pytest.raises(UnknownTargetError):
            unregister_target("never-registered")


PLUGIN_SOURCE = textwrap.dedent("""\
    from repro.targets import Target, TargetState
    from repro.pmdk.pool import pmem_map_file


    class PluginTarget(Target):
        NAME = %r
        VERSION = "0"
        SCOPE = "test plugin"
        CONCURRENCY = "-"
        POOL_SIZE = 4096

        def setup(self):
            pool = pmem_map_file("plugin", self.POOL_SIZE)
            pool.memory.persist_all()
            return TargetState(pool)
""")


class TestDynamicLoading:
    def test_load_target_module_from_file(self, tmp_path):
        path = tmp_path / "plugin_target_a.py"
        path.write_text(PLUGIN_SOURCE % "plugin-a")
        try:
            loaded = load_target_module(str(path))
            assert loaded == ["plugin-a"]
            assert make_target("plugin-a").NAME == "plugin-a"
            # repeat loads are idempotent, not duplicate-name errors
            assert load_target_module(str(path)) == []
        finally:
            unregister_target("plugin-a")

    def test_load_target_module_import_error(self, tmp_path):
        path = tmp_path / "broken_plugin.py"
        path.write_text("import does_not_exist_anywhere\n")
        with pytest.raises(TargetModuleError) as excinfo:
            load_target_module(str(path))
        assert "broken_plugin" in str(excinfo.value)

    def test_load_target_module_missing_file(self, tmp_path):
        with pytest.raises(TargetModuleError):
            load_target_module(str(tmp_path / "nope.py"))

    def test_load_target_module_bad_dotted_name(self):
        with pytest.raises(TargetModuleError):
            load_target_module("no.such.module")

    def test_load_target_module_no_targets(self, tmp_path):
        path = tmp_path / "empty_plugin.py"
        path.write_text("VALUE = 1\n")
        with pytest.raises(TargetModuleError) as excinfo:
            load_target_module(str(path))
        assert "no Target subclasses" in str(excinfo.value)
