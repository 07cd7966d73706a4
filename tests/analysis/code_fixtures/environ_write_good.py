"""Fixture: environment reads and private mappings (negative)."""
import os


def engine():
    return os.environ.get("SST_ENGINE", "kernel")


def child_environment(engine):
    environment = dict(os.environ)
    environment["SST_ENGINE"] = engine
    environment.update({"SST_WORKERS": "1"})
    return environment


def forget_engine():
    os.environ.pop("SST_ENGINE", None)


def scoped(value):
    previous = os.environ.get("SST_ENGINE")
    os.environ["SST_ENGINE"] = value  # sst: disable=environ-write
    return previous
