"""Fixture-snippet tests for every REP101 -- REP106 rule.

Each rule gets at least one positive (the violation fires), one negative
(compliant code stays clean) and one suppressed case; the src-scoped rules
additionally prove they stay silent outside ``src``.
"""

from __future__ import annotations

import pytest

pytestmark = pytest.mark.lint


# ---------------------------------------------------------------------- #
# REP101: float identity comparisons
# ---------------------------------------------------------------------- #
class TestFloatIdentityComparison:
    def test_is_math_inf_fires(self, codes):
        assert codes(
            """
            import math

            def f(x):
                return x is math.inf
            """,
            select=["REP101"],
        ) == ["REP101"]

    def test_resolved_module_constant_fires(self, codes):
        assert codes(
            """
            import math

            _INF = math.inf

            def f(x):
                if x is not _INF:
                    return 1
            """,
            select=["REP101"],
        ) == ["REP101"]

    def test_float_literal_and_float_call_fire(self, codes):
        found = codes(
            """
            def f(x, y):
                return (x is 1.5, y is float("inf"))
            """,
            select=["REP101"],
        )
        assert found == ["REP101", "REP101"]

    def test_chained_comparison_checks_each_identity_op(self, codes):
        assert codes(
            """
            import math

            def f(x, y):
                return x == y is math.nan
            """,
            select=["REP101"],
        ) == ["REP101"]

    def test_compliant_comparisons_stay_clean(self, codes):
        assert codes(
            """
            import math

            _SENTINEL = object()

            def f(x, y):
                return (
                    x == math.inf,
                    math.isinf(x),
                    x is None,
                    x is _SENTINEL,
                    x is y,
                )
            """,
            select=["REP101"],
        ) == []

    def test_integer_constant_is_not_a_float(self, codes):
        # `x is 1.5` is the trap; `flag is _MODE` with an int constant is a
        # different (ruff-covered) question and must not fire REP101.
        assert codes(
            """
            _MODE = 3

            def f(flag):
                return flag is _MODE
            """,
            select=["REP101"],
        ) == []

    def test_applies_outside_src_too(self, codes):
        assert codes(
            """
            import math

            def f(x):
                return x is math.inf
            """,
            rel="tests/test_sample.py",
            select=["REP101"],
        ) == ["REP101"]

    def test_suppression_drops_the_finding(self, codes):
        assert codes(
            """
            import math

            def f(x):
                return x is math.inf  # replint: disable=REP101
            """,
            select=["REP101"],
        ) == []


# ---------------------------------------------------------------------- #
# REP102: unguarded numpy/scipy imports in library code
# ---------------------------------------------------------------------- #
class TestUnguardedNumpyImport:
    def test_top_level_import_numpy_fires(self, codes):
        assert codes("import numpy as np\n", select=["REP102"]) == ["REP102"]

    def test_from_scipy_import_fires(self, codes):
        assert codes(
            "from scipy.optimize import linprog\n", select=["REP102"]
        ) == ["REP102"]

    def test_import_error_guard_is_allowed(self, codes):
        assert codes(
            """
            try:
                import numpy as np
            except ImportError:
                np = None
            """,
            select=["REP102"],
        ) == []

    def test_function_local_import_is_allowed(self, codes):
        assert codes(
            """
            def f():
                import numpy as np
                return np.zeros(3)
            """,
            select=["REP102"],
        ) == []

    def test_type_checking_block_is_allowed(self, codes):
        assert codes(
            """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                import numpy as np
            """,
            select=["REP102"],
        ) == []

    def test_backend_allowlist_module_is_exempt(self, codes):
        assert codes(
            "import numpy as np\n",
            rel="src/repro/kernels/scipy_backend.py",
            select=["REP102"],
        ) == []

    def test_allowlist_names_only_the_numpy_tier_modules(self):
        from repro.lint.rules import UnguardedNumpyImport

        assert UnguardedNumpyImport.ALLOWED_MODULES == {
            "repro.kernels.scipy_backend",
            "repro.congest.engine.dense",
        }

    def test_rule_is_src_only(self, codes):
        assert codes(
            "import numpy as np\n",
            rel="tests/test_sample.py",
            select=["REP102"],
        ) == []

    def test_unrelated_imports_stay_clean(self, codes):
        assert codes(
            "import math\nfrom collections import deque\n", select=["REP102"]
        ) == []


# ---------------------------------------------------------------------- #
# REP103: ad-hoc REPRO_* environment reads
# ---------------------------------------------------------------------- #
class TestEnvConfigRead:
    def test_environ_get_fires(self, codes):
        assert codes(
            """
            import os

            def f():
                return os.environ.get("REPRO_BACKEND")
            """,
            select=["REP103"],
        ) == ["REP103"]

    def test_getenv_and_subscript_fire(self, codes):
        found = codes(
            """
            import os

            def f():
                return os.getenv("REPRO_SHARDS", ""), os.environ["REPRO_ENGINE"]
            """,
            select=["REP103"],
        )
        assert found == ["REP103", "REP103"]

    def test_key_resolved_through_module_constant(self, codes):
        assert codes(
            """
            import os

            _VAR = "REPRO_KERNEL_BACKEND"

            def f():
                return os.environ.get(_VAR)
            """,
            select=["REP103"],
        ) == ["REP103"]

    def test_non_repro_keys_stay_clean(self, codes):
        assert codes(
            """
            import os

            def f():
                return os.environ.get("HOME"), os.environ["PATH"]
            """,
            select=["REP103"],
        ) == []

    def test_env_write_is_not_a_read(self, codes):
        assert codes(
            """
            import os

            def f():
                os.environ["REPRO_BACKEND"] = "python"
            """,
            select=["REP103"],
        ) == []

    def test_runtime_module_is_exempt(self, codes):
        assert codes(
            """
            import os

            def f():
                return os.environ.get("REPRO_BACKEND")
            """,
            rel="src/repro/runtime.py",
            select=["REP103"],
        ) == []

    def test_allowlist_is_runtime_and_the_two_registries(self):
        from repro.lint.rules import EnvConfigRead

        assert EnvConfigRead.ALLOWED_MODULES == {
            "repro.runtime",
            "repro.congest.engine.base",
            "repro.kernels.backend",
        }

    def test_rule_is_src_only(self, codes):
        assert codes(
            """
            import os

            def f():
                return os.environ.get("REPRO_BACKEND")
            """,
            rel="tests/test_sample.py",
            select=["REP103"],
        ) == []


# ---------------------------------------------------------------------- #
# REP104: WeightedGraph mutators must bump _version
# ---------------------------------------------------------------------- #
class TestMutatorVersionBump:
    def test_subscript_assign_without_bump_fires(self, codes):
        assert codes(
            """
            class WeightedGraph:
                def add_edge(self, u, v, w):
                    self._adjacency[u][v] = w
            """,
            select=["REP104"],
        ) == ["REP104"]

    def test_delete_and_pop_without_bump_fire(self, codes):
        found = codes(
            """
            class WeightedGraph:
                def remove_edge(self, u, v):
                    del self._adjacency[u][v]

                def remove_node(self, u):
                    self._adjacency.pop(u, None)
            """,
            select=["REP104"],
        )
        assert found == ["REP104", "REP104"]

    def test_bumping_mutator_is_clean(self, codes):
        assert codes(
            """
            class WeightedGraph:
                def add_edge(self, u, v, w):
                    self._adjacency[u][v] = w
                    self._version += 1
            """,
            select=["REP104"],
        ) == []

    def test_init_rebinding_is_not_a_mutation(self, codes):
        assert codes(
            """
            class WeightedGraph:
                def __init__(self):
                    self._adjacency = {}
                    self._version = 0
            """,
            select=["REP104"],
        ) == []

    def test_other_classes_are_ignored(self, codes):
        assert codes(
            """
            class OverlayGraph:
                def set_weight(self, u, v, w):
                    self._adjacency[u][v] = w
            """,
            select=["REP104"],
        ) == []

    def test_applies_outside_src_too(self, codes):
        assert codes(
            """
            class WeightedGraph:
                def poke(self, u):
                    self._adjacency[u] = {}
            """,
            rel="tests/test_sample.py",
            select=["REP104"],
        ) == ["REP104"]

    def test_suppression_on_the_method_line(self, codes):
        assert codes(
            """
            class WeightedGraph:
                def poke(self, u):  # replint: disable=REP104
                    self._adjacency[u] = {}
            """,
            select=["REP104"],
        ) == []


# ---------------------------------------------------------------------- #
# REP105: engine/backend subclasses must be registered
# ---------------------------------------------------------------------- #
class TestUnregisteredSubclass:
    def test_unregistered_engine_fires(self, codes):
        assert codes(
            """
            from repro.congest.engine.base import ExecutionEngine

            class FancyEngine(ExecutionEngine):
                pass
            """,
            select=["REP105"],
        ) == ["REP105"]

    def test_registered_engine_is_clean(self, codes):
        assert codes(
            """
            from repro.congest.engine.base import ExecutionEngine, register_engine

            class FancyEngine(ExecutionEngine):
                pass

            register_engine(FancyEngine())
            """,
            select=["REP105"],
        ) == []

    def test_registration_through_an_alias_is_seen(self, codes):
        assert codes(
            """
            from repro.kernels.backend import KernelBackend, register_backend

            class FancyBackend(KernelBackend):
                pass

            _instance = FancyBackend()
            register_backend(_instance)
            """,
            select=["REP105"],
        ) == []

    def test_suffix_match_covers_subclass_chains(self, codes):
        # GpuBackend(ScipyBackend): the base is itself a subclass, matched
        # by the *Backend suffix rather than the exact registry base name.
        assert codes(
            """
            from repro.kernels.scipy_backend import ScipyBackend

            class GpuBackend(ScipyBackend):
                pass
            """,
            select=["REP105"],
        ) == ["REP105"]

    def test_nested_classes_are_ignored(self, codes):
        assert codes(
            """
            from repro.congest.engine.base import ExecutionEngine

            def make_engine():
                class TempEngine(ExecutionEngine):
                    pass

                return TempEngine
            """,
            select=["REP105"],
        ) == []

    def test_rule_is_src_only(self, codes):
        assert codes(
            """
            from repro.congest.engine.base import ExecutionEngine

            class StubEngine(ExecutionEngine):
                pass
            """,
            rel="tests/test_sample.py",
            select=["REP105"],
        ) == []

    def test_suppression_on_the_class_line(self, codes):
        assert codes(
            """
            from repro.congest.engine.base import ExecutionEngine

            class FancyEngine(ExecutionEngine):  # replint: disable=REP105
                pass
            """,
            select=["REP105"],
        ) == []


# ---------------------------------------------------------------------- #
# REP106: module-global random.* calls
# ---------------------------------------------------------------------- #
class TestGlobalRandomCall:
    def test_global_draw_fires(self, codes):
        assert codes(
            """
            import random

            def f():
                return random.random()
            """,
            select=["REP106"],
        ) == ["REP106"]

    def test_global_seed_fires(self, codes):
        assert codes(
            """
            import random

            def f():
                random.seed(1)
                return random.randrange(10)
            """,
            select=["REP106"],
        ) == ["REP106", "REP106"]

    def test_explicit_random_instance_is_clean(self, codes):
        assert codes(
            """
            import random

            def f(seed):
                rng = random.Random(seed)
                return rng.random()
            """,
            select=["REP106"],
        ) == []

    def test_other_modules_named_random_do_not_confuse(self, codes):
        # No `import random` in the file: `random` is some local object, not
        # the stdlib module-global stream.
        assert codes(
            """
            def f(random):
                return random.random()
            """,
            select=["REP106"],
        ) == []

    def test_quantum_rng_module_is_exempt(self, codes):
        assert codes(
            """
            import random

            def f():
                return random.getrandbits(32)
            """,
            rel="src/repro/quantum/rng.py",
            select=["REP106"],
        ) == []

    def test_rule_is_src_only(self, codes):
        assert codes(
            """
            import random

            def f():
                return random.random()
            """,
            rel="tests/test_sample.py",
            select=["REP106"],
        ) == []
