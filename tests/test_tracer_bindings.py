"""The benchmark tracer must still find every layer boundary it wraps.

``perfbench/tracer.py`` wraps qcong's module attributes from outside the
package; a refactor that renames or unbinds one of them makes a traced
benchmark run fail.  This test catches that in the ordinary test run.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wraps_every_boundary(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    t = tracer.Tracer()
    try:
        t.install()
        assert t.missing == []
    finally:
        t.restore()
