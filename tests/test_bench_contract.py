"""The benchmark's tracer reaches the library by name; a cut that removes
one of those names would stop every traced benchmark run."""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_resolves_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    tracer = tracing.Tracer()  # looks up every wrapped name; installs nothing
    assert [w.__wrapped__ for _, _, w in tracer._wrappers] == [f for _, _, f in tracer._originals]
