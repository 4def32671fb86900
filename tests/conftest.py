from __future__ import annotations

import numpy as np
import pytest

from helpers import dyad_fixture_cells, make_tensor, random_active_grids, write_edge_list


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20150612)


@pytest.fixture
def small_tensor(rng):
    return make_tensor(random_active_grids(rng, 6, density=0.7, high=40))


@pytest.fixture
def dyad_year_files(tmp_path):
    """The 12-journal dyad fixture written as three TSV edge lists."""
    paths = {}
    for label, cells in dyad_fixture_cells().items():
        path = tmp_path / f"year_{label}.tsv"
        write_edge_list(path, cells, comment="fixture")
        paths[label] = path
    return paths


@pytest.fixture(autouse=True)
def _count_criterion_6(request, monkeypatch):
    """Record criterion 6's count of brute-force optimal instances as the
    user property ``optimal`` ("105/110"). The gate is 95%, so the count
    shows how much slack a change to Louvain leaves."""
    if request.node.name != "test_criterion_6_louvain_reaches_brute_force_optimum":
        yield
        return
    module = request.module
    louvain, best_partition_q = module.louvain, module.best_partition_q
    found, optimal = [], []

    def counted_louvain(graph, seed=0):
        result = louvain(graph, seed)
        found.append(result.q)
        return result

    def counted_best(nodes, edges):
        best = best_partition_q(nodes, edges)
        # The criterion's own rule: within 1e-9 of the exhaustive maximum.
        optimal.append(found[-1] >= best - 1e-9)
        return best

    monkeypatch.setattr(module, "louvain", counted_louvain)
    monkeypatch.setattr(module, "best_partition_q", counted_best)
    yield
    request.node.user_properties.append(("optimal", f"{sum(optimal)}/{len(optimal)}"))


# One pass/fail line per acceptance criterion at the end of the run, with
# the user properties a criterion recorded.
_ACCEPTANCE_RESULTS: dict[str, str] = {}
_ACCEPTANCE_PROPERTIES: dict[str, list] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _ACCEPTANCE_RESULTS[name] = "PASS" if report.passed else "FAIL"
    elif report.when == "setup" and report.skipped:
        _ACCEPTANCE_RESULTS[name] = "SKIP"
    elif report.when == "setup" and report.failed:
        _ACCEPTANCE_RESULTS[name] = "ERROR"
    elif report.when == "teardown":
        _ACCEPTANCE_PROPERTIES[name] = report.user_properties


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        properties = "".join(f"  {key}={value}" for key, value in _ACCEPTANCE_PROPERTIES.get(name, []))
        terminalreporter.write_line(f"{_ACCEPTANCE_RESULTS[name]}  {name}{properties}")
