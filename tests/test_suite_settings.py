"""Tests for the test suite's own pytest settings."""

pytest_plugins = ["pytester"]


def test_a_failing_property_test_does_not_end_the_session(pytester, request):
    # A failing hypothesis test makes the plugin's report hook touch a
    # deprecated mypy_extensions name; the warning filter must not turn
    # that into an internal error that hides every later test.
    filters = "\n    ".join(request.config.getini("filterwarnings"))
    pytester.makeini(f"[pytest]\nfilterwarnings =\n    {filters}\n")
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
