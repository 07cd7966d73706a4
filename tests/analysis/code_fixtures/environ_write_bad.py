"""Fixture: process-wide environment writes (positive)."""
import os
from os import environ


def set_engine(engine):
    os.environ["SST_ENGINE"] = engine


def set_many(values):
    os.environ.update(values)


def default_workers():
    environ.setdefault("SST_WORKERS", "1")


def put_timeout(seconds):
    os.putenv("SST_TASK_TIMEOUT", str(seconds))


def append_path(extra):
    os.environ["PATH"] += os.pathsep + extra
