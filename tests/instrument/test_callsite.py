"""Call-site identification tests."""

import sys

from repro.instrument import call_site, stack_trace


def outer():
    return inner()


def inner():
    return call_site(skip=1)


class TestCallSite:
    def test_names_this_module(self):
        site = call_site(skip=1)
        assert "test_callsite" in site

    def test_includes_function_and_line(self):
        site = inner()
        module, func, line = site.rsplit(":", 2)
        assert func == "inner"
        assert int(line) > 0

    def test_stack_trace_order(self):
        def leaf():
            return stack_trace(skip=1)

        def mid():
            return leaf()

        frames = mid()
        assert "leaf" in frames[0]
        assert "mid" in frames[1]

    def test_stack_trace_limit(self):
        frames = stack_trace(skip=1, limit=2)
        assert len(frames) <= 2

    def test_skips_instrumentation_frames(self):
        # simulate a frame whose module matches an internal prefix by
        # checking the public behaviour: the innermost reported frame is
        # this test, not the instrument package.
        frames = stack_trace(skip=1)
        assert not frames[0].startswith("repro.instrument")


class TestCallSiteTable:
    def make(self):
        from repro.instrument import CallSiteTable
        return CallSiteTable()

    def table_site(self, table):
        return table.intern_caller(skip=1)

    def test_intern_returns_small_int(self):
        table = self.make()
        site = self.table_site(table)
        assert isinstance(site, int)
        assert site == 0

    def test_same_site_same_id(self):
        table = self.make()
        ids = {table.intern_name("m:f:1") for _ in range(5)}
        assert len(ids) == 1
        assert len(table) == 1

    def test_name_round_trip(self):
        table = self.make()
        site = self.table_site(table)
        name = table.name(site)
        module, func, line = name.rsplit(":", 2)
        assert "test_callsite" in module
        assert func == "table_site"
        assert int(line) > 0

    def test_intern_caller_matches_call_site_string(self):
        table = self.make()
        site_id = table.intern_caller(skip=1)
        site_str = call_site(skip=1)
        # both report this test function (line numbers differ: each names
        # its own calling line)
        assert table.name(site_id).rsplit(":", 1)[0] == \
            site_str.rsplit(":", 1)[0]

    def test_id_string_bijection(self):
        # a frame id and an explicitly interned equal string share an id
        table = self.make()
        site_id = self.table_site(table)
        assert table.intern_name(table.name(site_id)) == site_id

    def test_name_passes_through_strings_and_none(self):
        table = self.make()
        assert table.name("already:resolved:1") == "already:resolved:1"
        assert table.name(None) is None
        assert table.name(999999) == 999999  # unknown id: untouched

    def test_intern_stack_matches_stack_trace(self):
        table = self.make()

        def leaf():
            return table.intern_stack(skip=1), stack_trace(skip=1)

        def mid():
            return leaf()

        ids, strings = mid()
        resolved = list(table.names(ids))
        # same frames in the same order; the two capture sites sit on
        # different lines of leaf(), so compare from mid() outwards
        assert resolved[1:] == strings[1:]
        assert "leaf" in resolved[0]

    def test_distinct_sites_distinct_ids(self):
        table = self.make()
        a = table.intern_name("m:f:1")
        b = table.intern_name("m:f:2")
        assert a != b
        assert table.names((a, b)) == ("m:f:1", "m:f:2")

    def test_skips_internal_frames(self):
        table = self.make()
        site = table.intern_caller(skip=1)
        assert not table.name(site).startswith("repro.instrument")


def test_static_strings_unify_with_runtime_interned_frames():
    """The bijection replay relies on: interning a recorded
    ``module:function:line`` string (as a repro bundle stores call sites)
    yields the same id a live frame at that site gets."""
    from repro.instrument import CallSiteTable
    table = CallSiteTable()

    def writer():
        return table.intern_caller(skip=1), sys._getframe(0).f_lineno

    runtime_id, lineno = writer()
    static_string = "%s:writer:%d" % (__name__, lineno)
    assert table.intern_name(static_string) == runtime_id
    assert table.name(runtime_id) == static_string
