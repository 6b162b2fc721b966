"""Tier-1 configuration: an unexpected alias or boundary warning fails the test.

``AliasRisk`` (the dense kernel's quadrature aliases) and
``BoundaryTruncation`` (a field's mass reaches the periodic seam) report
runs whose figures cannot be trusted, so a test that meets either
without expecting it (``pytest.warns``, or a local filter where the
warning is beside the point) errors.
"""


def pytest_configure(config):
    for category in ("AliasRisk", "BoundaryTruncation"):
        config.addinivalue_line("filterwarnings", f"error::rotor_gpe.errors.{category}")
