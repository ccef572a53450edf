"""Determinism-linter tests: every rule fires on a fixture snippet,
suppressions and module scoping behave, and the shipped ``src/`` tree
lints clean (the merge gate ``repro lint src`` enforces in CI)."""

import textwrap

import pytest

from repro.analysis.lint import (
    RULES,
    LintFinding,
    iter_python_files,
    lint_paths,
    lint_source,
    render_findings,
)

#: Paths that place a snippet inside / outside each rule's scope.
CRITICAL = "src/repro/dropout/plan.py"
FINGERPRINT = "src/repro/serve/deployment.py"
FORK = "src/repro/serve/replicas.py"
NEUTRAL = "src/repro/nn/linear.py"


def findings(source: str, path: str = NEUTRAL):
    return lint_source(textwrap.dedent(source), path)


def rules_of(found):
    return [f.rule for f in found]


# ----------------------------------------------------------------------
# unseeded-rng
# ----------------------------------------------------------------------
class TestUnseededRng:
    def test_default_rng_without_seed(self):
        found = findings("""
            import numpy as np
            rng = np.random.default_rng()
        """)
        assert rules_of(found) == ["unseeded-rng"]

    def test_default_rng_with_seed_is_clean(self):
        assert not findings("""
            import numpy as np
            rng = np.random.default_rng(17)
            other = np.random.default_rng(seed=3)
        """)

    def test_stdlib_random_class_without_seed(self):
        found = findings("""
            import random
            r = random.Random()
        """)
        assert rules_of(found) == ["unseeded-rng"]

    def test_global_numpy_draw(self):
        found = findings("""
            import numpy as np
            x = np.random.normal(size=4)
            np.random.seed(0)
        """)
        assert rules_of(found) == ["unseeded-rng", "unseeded-rng"]

    def test_global_stdlib_draw(self):
        found = findings("""
            import random
            x = random.random()
        """)
        assert rules_of(found) == ["unseeded-rng"]

    def test_instance_draws_are_clean(self):
        assert not findings("""
            import numpy as np
            rng = np.random.default_rng(5)
            x = rng.normal(size=4)
            y = rng.choice([1, 2, 3])
        """)


# ----------------------------------------------------------------------
# wallclock-entropy (critical modules only)
# ----------------------------------------------------------------------
class TestWallclockEntropy:
    SNIPPET = """
        import os
        import time
        from datetime import datetime
        a = time.time()
        b = datetime.now()
        c = os.urandom(8)
    """

    def test_fires_in_critical_module(self):
        found = findings(self.SNIPPET, CRITICAL)
        assert rules_of(found) == ["wallclock-entropy"] * 3

    def test_silent_outside_critical_modules(self):
        assert not findings(self.SNIPPET, NEUTRAL)

    def test_secrets_and_uuid(self):
        found = findings("""
            import secrets
            import uuid
            token = secrets.token_hex(8)
            run = uuid.uuid4()
        """, CRITICAL)
        assert rules_of(found) == ["wallclock-entropy"] * 2


# ----------------------------------------------------------------------
# set-iteration
# ----------------------------------------------------------------------
class TestSetIteration:
    def test_for_over_set_literal(self):
        found = findings("""
            for item in {1, 2, 3}:
                print(item)
        """)
        assert rules_of(found) == ["set-iteration"]

    def test_comprehension_over_set_call(self):
        found = findings("""
            names = [n for n in set(["a", "b"])]
        """)
        assert rules_of(found) == ["set-iteration"]

    def test_for_over_frozenset(self):
        found = findings("""
            for item in frozenset((1, 2)):
                print(item)
        """)
        assert rules_of(found) == ["set-iteration"]

    def test_sorted_set_is_clean(self):
        assert not findings("""
            for item in sorted({3, 1, 2}):
                print(item)
        """)


# ----------------------------------------------------------------------
# unordered-float-sum
# ----------------------------------------------------------------------
class TestUnorderedFloatSum:
    def test_sum_over_dict_values(self):
        found = findings("""
            total = sum(record.values())
        """)
        assert rules_of(found) == ["unordered-float-sum"]

    def test_sum_genexp_over_set(self):
        # Both rules fire: the sum's accumulation order is unordered
        # AND the inner comprehension iterates a set.
        found = findings("""
            total = sum(x * x for x in {1.0, 2.0})
        """)
        assert sorted(rules_of(found)) \
            == ["set-iteration", "unordered-float-sum"]

    def test_fsum_over_set(self):
        found = findings("""
            import math
            total = math.fsum({0.1, 0.2})
        """)
        assert rules_of(found) == ["unordered-float-sum"]

    def test_sum_over_list_is_clean(self):
        assert not findings("""
            total = sum([0.1, 0.2, 0.3])
            keyed = sum(sorted(record.values()))
        """)


# ----------------------------------------------------------------------
# fork-shared-mutation (repro/serve only)
# ----------------------------------------------------------------------
class TestForkSharedMutation:
    TENSOR = """
        def hot_swap(plan, arrays):
            plan.tensors["weight"] = arrays["weight"]
    """
    DATA = """
        def repoint(parameter, view):
            parameter.data = view
    """

    def test_tensor_assignment_flagged_in_serve(self):
        found = findings(self.TENSOR, FORK)
        assert rules_of(found) == ["fork-shared-mutation"]

    def test_data_attr_flagged_in_serve(self):
        found = findings(self.DATA, FORK)
        assert rules_of(found) == ["fork-shared-mutation"]

    def test_silent_outside_serve(self):
        assert not findings(self.TENSOR, NEUTRAL)
        assert not findings(self.DATA, NEUTRAL)

    def test_rebind_tensors_is_sanctioned(self):
        assert not findings("""
            def rebind_tensors(kernel, arrays):
                for plan in kernel.plans:
                    plan.tensors["weight"] = arrays["weight"]
        """, FORK)


# ----------------------------------------------------------------------
# fingerprint-sort (fingerprint modules only)
# ----------------------------------------------------------------------
class TestFingerprintSort:
    def test_unsorted_dumps_flagged(self):
        found = findings("""
            import json
            payload = json.dumps({"b": 1, "a": 2})
        """, FINGERPRINT)
        assert rules_of(found) == ["fingerprint-sort"]

    def test_sorted_dumps_clean(self):
        assert not findings("""
            import json
            payload = json.dumps({"b": 1}, sort_keys=True)
        """, FINGERPRINT)

    def test_silent_outside_fingerprint_modules(self):
        assert not findings("""
            import json
            payload = json.dumps({"b": 1})
        """, NEUTRAL)


# ----------------------------------------------------------------------
# broad-except
# ----------------------------------------------------------------------
class TestBroadExcept:
    RECOVERY = "src/repro/serve/replicas.py"

    def test_bare_except_flagged(self):
        found = findings("""
            try:
                x = 1
            except:
                pass
        """, self.RECOVERY)
        assert rules_of(found) == ["broad-except"]

    def test_except_exception_flagged(self):
        found = findings("""
            try:
                x = 1
            except Exception:
                pass
        """, self.RECOVERY)
        assert rules_of(found) == ["broad-except"]

    def test_except_base_exception_flagged(self):
        found = findings("""
            try:
                x = 1
            except BaseException as exc:
                raise exc
        """, self.RECOVERY)
        assert rules_of(found) == ["broad-except"]

    def test_broad_type_inside_tuple_flagged(self):
        found = findings("""
            try:
                x = 1
            except (ValueError, Exception):
                pass
        """, self.RECOVERY)
        assert rules_of(found) == ["broad-except"]

    def test_narrow_handlers_clean(self):
        assert not findings("""
            try:
                x = 1
            except (OSError, ValueError):
                pass
            except KeyError:
                pass
        """, self.RECOVERY)

    def test_allow_annotation_suppresses(self):
        assert not findings("""
            try:
                x = 1
            except Exception:  # repro: allow[broad-except] — reported upstream
                pass
        """, self.RECOVERY)

    @pytest.mark.parametrize("path", [
        "src/repro/serve/service.py",
        "src/repro/search/parallel.py",
        "src/repro/faults/plan.py",
        "src/repro/workers.py",
    ])
    def test_fires_across_recovery_modules(self, path):
        found = findings("""
            try:
                x = 1
            except Exception:
                pass
        """, path)
        assert rules_of(found) == ["broad-except"]

    def test_silent_outside_recovery_modules(self):
        assert not findings("""
            try:
                x = 1
            except Exception:
                pass
        """, NEUTRAL)


# ----------------------------------------------------------------------
# suppression syntax + mechanics
# ----------------------------------------------------------------------
class TestSuppression:
    def test_inline_allow_suppresses_matching_rule(self):
        assert not findings("""
            import numpy as np
            rng = np.random.default_rng()  # repro: allow[unseeded-rng]
        """)

    def test_allow_for_other_rule_does_not_suppress(self):
        found = findings("""
            import numpy as np
            rng = np.random.default_rng()  # repro: allow[set-iteration]
        """)
        assert rules_of(found) == ["unseeded-rng"]

    def test_allow_on_other_line_does_not_suppress(self):
        found = findings("""
            import numpy as np
            # repro: allow[unseeded-rng]
            rng = np.random.default_rng()
        """)
        assert rules_of(found) == ["unseeded-rng"]

    def test_multiple_allows_on_one_line(self):
        assert not findings("""
            import numpy as np
            x = sum({1.0, 2.0})  # repro: allow[unordered-float-sum] repro: allow[set-iteration]
        """)


# ----------------------------------------------------------------------
# plumbing: ordering, rendering, syntax errors, the shipped tree
# ----------------------------------------------------------------------
class TestPlumbing:
    def test_rules_registry_matches_findings(self):
        assert set(RULES) == {
            "unseeded-rng", "wallclock-entropy", "set-iteration",
            "unordered-float-sum", "fork-shared-mutation",
            "fingerprint-sort", "broad-except"}

    def test_findings_sorted_and_rendered(self):
        found = findings("""
            import numpy as np
            for x in {1, 2}:
                np.random.seed(x)
        """)
        assert rules_of(found) == ["set-iteration", "unseeded-rng"]
        text = render_findings(found)
        assert text.endswith("2 finding(s)")
        assert f"{NEUTRAL}:3:" in text

    def test_syntax_error_becomes_finding(self):
        found = findings("def broken(:\n    pass\n")
        assert rules_of(found) == ["syntax-error"]

    def test_to_dict_round_trip(self):
        found = findings("x = sum(d.values())\n")
        payload = found[0].to_dict()
        assert LintFinding(**payload) == found[0]

    def test_iter_python_files_rejects_non_python(self, tmp_path):
        with pytest.raises(ValueError):
            iter_python_files([str(tmp_path / "nope.txt")])

    def test_iter_python_files_sorted_and_deduped(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("y = 2\n")
        sub = tmp_path / "__pycache__"
        sub.mkdir()
        (sub / "skip.py").write_text("z = 3\n")
        files = iter_python_files([str(tmp_path), str(tmp_path / "a.py")])
        assert files == [str(tmp_path / "a.py"), str(tmp_path / "b.py")]

    def test_shipped_source_tree_is_clean(self):
        # The merge gate: the same check CI runs as `repro lint src`.
        assert lint_paths(["src"]) == []


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
