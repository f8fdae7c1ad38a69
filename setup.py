"""Legacy setup shim.

All metadata lives in pyproject.toml (PEP 621); this file exists so that
``python setup.py develop`` can install the package in offline
environments without the ``wheel`` package, where the PEP 660 editable
build of ``pip install -e .`` fails.
"""

from setuptools import setup

setup()
