"""Setuptools shim.

The tree declares no packaging metadata (there is no ``pyproject.toml`` or
``setup.cfg``), so installing it does not make the ``repro`` package
importable.  Run everything from the source tree instead::

    PYTHONPATH=src python -m repro.cli survey --sld-count 60
    PYTHONPATH=src python -m pytest -x -q
"""

from setuptools import setup

setup()
