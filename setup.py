"""Packaging for the self-stabilizing MDST reproduction.

Installs the ``repro`` package from ``src/`` and wires the ``repro``
console script (``repro run | sweep | bench | report``, see
:mod:`repro.runtime.cli`).  Plain setuptools keeps editable installs
(``pip install -e .``) working in offline environments where the ``wheel``
package is unavailable; for development without installing, prepend
``src/`` to ``PYTHONPATH`` instead.
"""

from setuptools import find_packages, setup

setup(
    name="repro-mdst",
    version="1.1.0",
    description=("Reproduction of Blin, Potop-Butucaru & Rovedakis (IPDPS "
                 "2009): self-stabilizing minimum-degree spanning tree "
                 "within one from the optimal degree"),
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=[
        "networkx>=2.6",
        "numpy>=1.21",
    ],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
    entry_points={
        "console_scripts": [
            "repro=repro.runtime.cli:main",
        ],
    },
)
