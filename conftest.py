"""Repo-level pytest configuration: custom marker registration."""


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "chaos: fault-injection suite driving the serving resilience layer "
        "(deterministic FaultPlan chaos; select with -m chaos)",
    )
    config.addinivalue_line(
        "markers",
        "lint_smoke: repo-invariant linter gate (runs `repro lint` over the "
        "real tree and the seeded-violation fixtures; select with -m lint_smoke)",
    )
    config.addinivalue_line(
        "markers",
        "network: E2E network-edge suite (real asyncio HTTP server on an "
        "ephemeral port + process workers; every test runs under a SIGALRM "
        "watchdog so a hung socket cannot wedge the pipeline — select with "
        "-m network)",
    )
