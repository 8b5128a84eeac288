"""The package namespace: every name rabispec exports resolves."""

import rabispec


def test_every_name_in_all_is_an_attribute():
    missing = [n for n in rabispec.__all__ if not hasattr(rabispec, n)]
    assert missing == []
    assert len(set(rabispec.__all__)) == len(rabispec.__all__)


def test_star_import_runs():
    ns = {}
    exec("from rabispec import *", ns)
    assert set(rabispec.__all__) <= set(ns)
