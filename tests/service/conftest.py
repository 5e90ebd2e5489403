"""Fixtures for the service suite.

The HTTP-level tests drive the builtin ASGI application through the
in-repo ASGI client (:class:`repro.service.testing.ServiceClient`).
"""

from __future__ import annotations

import pytest

from repro.data import Dataset
from repro.service.app import ServiceConfig, ServiceCore, \
    builtin_asgi_app
from repro.service.testing import ServiceClient


def small_dataset(name: str = "svc-small",
                  shuffle_seed=None) -> Dataset:
    """A deterministic 60-record dataset with real structure.

    Attribute A predicts the class strongly, B weakly, C not at all —
    enough signal that BH keeps some rules at min_sup=10. With
    ``shuffle_seed`` the same *content* arrives in a different record
    order (fingerprint tests).
    """
    records = []
    labels = []
    for index in range(60):
        a = "a1" if index % 3 else "a0"
        b = "b" + str(index % 2)
        c = "c" + str(index % 5)
        label = "pos" if (index % 3 != 0) == (index % 7 != 0) else "neg"
        records.append([a, b, c])
        labels.append(label)
    if shuffle_seed is not None:
        import random

        order = list(range(len(records)))
        random.Random(shuffle_seed).shuffle(order)
        records = [records[i] for i in order]
        labels = [labels[i] for i in order]
    return Dataset.from_records(records, labels, ["A", "B", "C"],
                                name=name)


@pytest.fixture
def core():
    """A ServiceCore with no background workers (tests drain the
    queue explicitly for deterministic scheduling) and the small
    dataset pre-registered."""
    service = ServiceCore(ServiceConfig(workers=0))
    service.registry.register("small", small_dataset())
    yield service
    service.close()


@pytest.fixture
def app(core):
    return builtin_asgi_app(core)


def make_client(app, token=None):
    """The in-repo ASGI client for ``app``."""
    return ServiceClient(app, token=token)


@pytest.fixture
def client(app):
    return make_client(app)
