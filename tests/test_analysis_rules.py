"""Per-rule fixture tests: each checker fires on its positive fixture
and stays silent on its clean twin."""

import ast
from pathlib import Path

import pytest

import repro
from repro.analysis import LintEngine
from repro.analysis.config import HOT_FUNCTIONS
from repro.analysis.rules.units import unit_of_name

FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"


def lint_fixture(name):
    engine = LintEngine(FIXTURES)
    return engine.run([FIXTURES / name])


def rules_of(findings):
    return sorted({f.rule for f in findings})


# ----------------------------------------------------------------------
# unit inference
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name,unit",
    [
        ("time_s", "s"),
        ("inlet_c", "degC"),
        ("power_total_w", "W"),
        ("fan_rpm", "RPM"),
        ("airflow_cfm", "CFM"),
        ("energy_kwh", "kWh"),
        ("target_util_pct", "%"),
        ("sla_total_pct_s", "%*s"),
        ("leakage_slope_w_per_c", "W/degC"),
        ("max_j", "J"),
        # physics subscripts: single-letter suffix needs a 2+ char stem
        ("t_j", None),
        ("c_h", None),
        ("q_ma", None),
        # no trailing suffix at all
        ("rpm_min", None),
        ("policy", None),
    ],
)
def test_unit_of_name(name, unit):
    assert unit_of_name(name) == unit


# ----------------------------------------------------------------------
# R001 unit consistency
# ----------------------------------------------------------------------
def test_r001_flags_cross_unit_mixes():
    findings = [f for f in lint_fixture("r001_bad.py") if f.rule == "R001"]
    assert len(findings) == 4
    kinds = "\n".join(f.message for f in findings)
    assert "arithmetic" in kinds
    assert "comparison" in kinds
    assert "assignment" in kinds
    assert "keyword" in kinds


def test_r001_clean_fixture_passes():
    assert [f for f in lint_fixture("r001_clean.py") if f.rule == "R001"] == []


# ----------------------------------------------------------------------
# R002 RNG discipline
# ----------------------------------------------------------------------
def test_r002_flags_every_banned_pattern():
    findings = [f for f in lint_fixture("r002_bad.py") if f.rule == "R002"]
    messages = "\n".join(f.message for f in findings)
    assert len(findings) == 5
    assert "stdlib 'random'" in messages
    assert "np.random.seed" in messages
    assert "np.random.rand" in messages
    assert "without an explicit seed" in messages
    assert "entry-point" in messages


def test_r002_clean_fixture_passes():
    assert [f for f in lint_fixture("r002_clean.py") if f.rule == "R002"] == []


# ----------------------------------------------------------------------
# R003 hot-path allocation
# ----------------------------------------------------------------------
def test_r003_flags_allocation_in_marked_function():
    findings = [f for f in lint_fixture("r003_bad.py") if f.rule == "R003"]
    messages = "\n".join(f.message for f in findings)
    assert len(findings) == 3
    assert "np.zeros" in messages
    assert ".append" in messages
    assert "comprehension" in messages
    # every finding names the hot function it fired in
    assert all("step_all" in f.message for f in findings)


def test_r003_ignores_unmarked_functions():
    findings = [f for f in lint_fixture("r003_bad.py") if f.rule == "R003"]
    assert not any("cold_helper" in f.message for f in findings)


def test_r003_clean_fixture_passes():
    assert [f for f in lint_fixture("r003_clean.py") if f.rule == "R003"] == []


def _qualified_defs(tree):
    """Every function's dotted qualified name in a module AST."""
    found = set()

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                name = prefix + (child.name,)
                if not isinstance(child, ast.ClassDef):
                    found.add(".".join(name))
                walk(child, name)

    walk(tree, ())
    return found


@pytest.mark.parametrize("suffix", sorted(HOT_FUNCTIONS))
def test_r003_hot_registrations_name_real_functions(suffix):
    """R003 skips a registered name that matches no def, so a stale
    entry would silently drop the allocation check from a hot path."""
    path = Path(repro.__file__).resolve().parent.parent / suffix
    assert path.is_file(), f"no module {suffix}"
    defined = _qualified_defs(ast.parse(path.read_text()))
    assert sorted(HOT_FUNCTIONS[suffix] - defined) == []


# ----------------------------------------------------------------------
# R004 trace-schema consistency
# ----------------------------------------------------------------------
def test_r004_flags_schema_drift():
    findings = [f for f in lint_fixture("r004_bad.py") if f.rule == "R004"]
    messages = "\n".join(f.message for f in findings)
    assert len(findings) == 2
    assert "junctoin_c" in messages  # recorded typo
    assert "power_total" in messages  # consumed typo


def test_r004_clean_fixture_passes():
    assert [f for f in lint_fixture("r004_clean.py") if f.rule == "R004"] == []


def test_r004_silent_without_declared_schema(tmp_path):
    # no *TRACE_COLUMNS constant in the file set: nothing to check against
    path = tmp_path / "mod.py"
    path.write_text('value = recorder.column("whatever")\n')
    engine = LintEngine(tmp_path)
    assert [f for f in engine.run([path]) if f.rule == "R004"] == []


def test_r004_cross_file_schema_collection(tmp_path):
    # schema declared in one file governs consumers in another
    (tmp_path / "schema.py").write_text('X_TRACE_COLUMNS = ("time_s",)\n')
    (tmp_path / "consumer.py").write_text('v = rec.column("oops")\n')
    engine = LintEngine(tmp_path)
    findings = engine.run([tmp_path])
    assert [f.rule for f in findings] == ["R004"]
    assert findings[0].path == "consumer.py"


# ----------------------------------------------------------------------
# whole-fixture-directory sanity: each bad fixture trips only its rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name,rule",
    [
        ("r001_bad.py", "R001"),
        ("r002_bad.py", "R002"),
        ("r003_bad.py", "R003"),
        ("r004_bad.py", "R004"),
    ],
)
def test_bad_fixtures_trip_exactly_their_rule(name, rule):
    assert rules_of(lint_fixture(name)) == [rule]


@pytest.mark.parametrize(
    "name",
    ["r001_clean.py", "r002_clean.py", "r003_clean.py", "r004_clean.py"],
)
def test_clean_fixtures_pass_all_rules(name):
    assert lint_fixture(name) == []
