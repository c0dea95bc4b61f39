"""Package metadata for ``repro``, the numpy reproduction of ST-HSL.

The package lives under ``src/``.  numpy and scipy are its only
third-party imports.  A plain ``setup.py`` (no ``pyproject.toml``) keeps
editable installs working offline, where setuptools may lack the
``wheel`` package that PEP 660 builds need.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', INIT.read_text(), re.M).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy", "scipy"],
)
