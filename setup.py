"""Legacy setup shim: the execution environment is offline and lacks the
``wheel`` package, so editable installs must go through
``setup.py develop`` rather than PEP 517.  Metadata mirrors pyproject.toml."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Python reproduction of 'YewPar: Skeletons for Exact Combinatorial "
        "Search' (PPoPP 2020)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.11",
    install_requires=["numpy", "networkx"],
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
)
