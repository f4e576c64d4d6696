"""Setuptools shim.

The canonical project metadata lives in ``pyproject.toml``; this file exists
so that the package can be installed in editable mode on machines without
network access or the ``wheel`` package (``python setup.py develop``).
"""

from setuptools import setup

setup()
