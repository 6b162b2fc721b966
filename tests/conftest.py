"""Tier-1 configuration: an unexpected alias, boundary or numpy warning fails the test.

``AliasRisk`` (the dense kernel's quadrature aliases) and
``BoundaryTruncation`` (a field's mass reaches the periodic seam) report
runs whose figures cannot be trusted, and numpy's ``RuntimeWarning`` (an
overflow or an invalid operation) reports arithmetic that has already
lost them, so a test that meets any of them without expecting it
(``pytest.warns``, or a local filter where the warning is beside the
point) errors.
"""


def pytest_configure(config):
    for category in (
        "rotor_gpe.errors.AliasRisk",
        "rotor_gpe.errors.BoundaryTruncation",
        "RuntimeWarning",
    ):
        config.addinivalue_line("filterwarnings", f"error::{category}")
