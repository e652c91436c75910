"""Setuptools shim so editable installs work without the wheel package.

The environment this reproduction targets is fully offline; ``pip`` cannot
fetch ``wheel`` for PEP 517 editable builds, so we keep a legacy ``setup.py``
and install with ``pip install -e . --no-use-pep517``.  The ``src`` layout
is declared here so the install works without any ``PYTHONPATH`` workaround.
"""

from setuptools import find_packages, setup

setup(
    name="repro-congest-clique-listing",
    version="1.8.0",
    description=(
        "Reproduction of 'Deterministic Near-Optimal Distributed Listing of "
        "Cliques' (Censor-Hillel, Leitersdorf, Vulakh; PODC 2022) with a "
        "pluggable high-performance CONGEST execution engine"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[
        "networkx>=2.8",
        "numpy>=1.22",
        "scipy>=1.8",
    ],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
)
