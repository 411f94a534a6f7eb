"""StatCounters tests."""

from repro.engine import StatCounters


class TestStatCounters:
    def test_missing_counter_reads_zero(self):
        assert StatCounters()["nope"] == 0.0

    def test_add_default_increment(self):
        c = StatCounters()
        c.add("x")
        c.add("x")
        assert c["x"] == 2.0

    def test_add_amount(self):
        c = StatCounters()
        c.add("bytes", 4096)
        assert c["bytes"] == 4096

    def test_initial_values(self):
        c = StatCounters({"a": 1, "b": 2.5})
        assert c["a"] == 1.0
        assert c["b"] == 2.5

    def test_contains_and_len(self):
        c = StatCounters()
        c.add("x")
        assert "x" in c
        assert "y" not in c
        assert len(c) == 1

    def test_total_by_prefix(self):
        c = StatCounters({"fault.page": 3, "fault.protection": 2, "other": 9})
        assert c.total("fault.") == 5.0

    def test_items_sorted(self):
        c = StatCounters({"b": 1, "a": 2})
        assert [k for k, _ in c.items()] == ["a", "b"]

    def test_as_dict_is_snapshot(self):
        c = StatCounters({"x": 1})
        snap = c.as_dict()
        c.add("x")
        assert snap["x"] == 1.0

    def test_iteration_independent_of_insertion_order(self):
        a = StatCounters()
        for key in ("z", "m", "a"):
            a.add(key)
        b = StatCounters()
        for key in ("a", "z", "m"):
            b.add(key)
        assert list(a) == list(b) == ["a", "m", "z"]
        assert list(a.items()) == list(b.items())
        assert list(a.as_dict()) == ["a", "m", "z"]
