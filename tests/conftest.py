from __future__ import annotations

import pytest

from infradep import BUILTIN_MODELS, build_reachability_graph, builtin_model, eliminate_vanishing


@pytest.fixture(scope="session")
def models():
    return {name: builtin_model(name) for name in BUILTIN_MODELS}


@pytest.fixture(scope="session")
def graphs(models):
    return {name: build_reachability_graph(m) for name, m in models.items()}


@pytest.fixture(scope="session")
def ctmcs(graphs):
    return {name: eliminate_vanishing(g) for name, g in graphs.items()}


@pytest.fixture(scope="session")
def model_a(models):
    return models["accidental"]


@pytest.fixture(scope="session")
def ctmc_a(ctmcs):
    return ctmcs["accidental"]
