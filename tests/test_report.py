"""``build_report`` looks its builders up in the module at call time.

The bench tracer times ``_semistable_strata``, ``_singular_lines`` and
``_duality`` by replacing them in ``sixpoint.report``; a report that held
the builders it captured at import would run them untimed.
"""

from sixpoint import report

TRACED = ("_semistable_strata", "_singular_lines", "_duality")


def test_build_report_calls_each_traced_builder_once_through_the_module(monkeypatch):
    calls = []

    def recording(name, builder):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return builder(*args, **kwargs)

        return wrapper

    for name in TRACED:
        monkeypatch.setattr(report, name, recording(name, getattr(report, name)))
    result = report.build_report()
    assert sorted(calls) == sorted(TRACED)
    assert result.passed
